// Exit-phase building blocks (§4.4), shared by the engine's exit-layer
// tasks (src/core/engine.h) and the mesh fleet's exit stages
// (src/net/node_process.h, src/net/round_driver.h).
//
// The exit phase splits into three stages that map one-to-one onto hop
// tasks in the engine's DAG:
//
//   1. Sort (per exit group, independent): decode the group's fully
//      stripped exit batch and route each plaintext — traps to the entry
//      group named inside them, inner ciphertexts load-balanced by
//      universal hash — into destination-indexed buckets.
//   2. Check (per destination group, after every sort): the multiset of
//      arriving trap commitments must equal the multiset registered at
//      submission time, and the inner ciphertexts must be duplicate-free.
//   3. Finalize (global): the trustees release the round key iff every
//      report is clean and the global trap/inner counts balance; only
//      then are the inner ciphertexts decrypted.
//
// Both executors call the same functions on the same inputs; the golden
// round digests (tests/golden_round.h) pin that they agree.
#ifndef SRC_CORE_EXIT_H_
#define SRC_CORE_EXIT_H_

#include <array>
#include <span>
#include <string>
#include <vector>

#include "src/core/message.h"
#include "src/core/trustees.h"
#include "src/crypto/shuffle.h"

namespace atom {

// The caller-facing outcome of one full protocol round (intake → mixing →
// exit). Produced by RoundEngine::RunToCompletion when the EngineRound
// carries an ExitPlan, and by DistributedRoundDriver::Wait.
struct RoundResult {
  bool aborted = false;
  std::string abort_reason;
  // Anonymized application plaintexts (padded length = params.message_len).
  std::vector<Bytes> plaintexts;
  // Trap-variant accounting (populated even when the trustees refuse the
  // key, so a disrupted round still reports what arrived).
  uint64_t traps_seen = 0;
  uint64_t inner_seen = 0;
};

// One source group's exit traffic for one destination group.
struct ExitBucket {
  std::vector<Bytes> traps;
  std::vector<Bytes> inner;
};

// One exit group's locally sorted view of its own exit batch (stage 1).
struct ExitSort {
  bool ok = true;  // false: a point in the batch failed extraction
  // Destination-indexed buckets, sized num_groups. A trap that names an
  // out-of-range group, an undecodable plaintext, or an unparseable
  // payload becomes a sentinel trap for the sorting group itself — it
  // matches no commitment, so the check fails and the round aborts.
  std::vector<ExitBucket> for_dst;
};

// Trap variant stage 1: decode group `self_gid`'s exit batch (dummies
// discarded) and sort into per-destination buckets.
ExitSort SortTrapExits(uint32_t self_gid, const CiphertextBatch& batch,
                       const MessageLayout& layout, size_t num_groups);

// NIZK variant stage 1: decode one group's exit batch straight into
// application plaintexts (dummies discarded). !ok carries the abort reason.
struct NizkExitDecode {
  bool ok = true;
  std::string error;
  std::vector<Bytes> plaintexts;
};
NizkExitDecode DecodeNizkExits(const CiphertextBatch& batch,
                               const MessageLayout& layout);

// Flattens one destination's buckets, one per source group in ascending
// source order, moving the entries out. Both executors route through this
// one function: the byte-identical plaintext order the equivalence suite
// pins depends on this gather order.
ExitBucket GatherExitBuckets(std::span<ExitBucket> from_src);
// The same, over every source's ExitSort: fills `traps`/`inner` for `dst`.
void GatherExitBuckets(std::span<ExitSort> sorted, uint32_t dst,
                       std::vector<Bytes>* traps, std::vector<Bytes>* inner);

// Trap variant stage 2: one destination group's §4.4 checks against the
// trap commitments registered for THIS engine round (per-engine-round
// commitment sets: a pipelined driver passes each round its own).
GroupReport CheckExitGroup(uint32_t gid, std::span<const Bytes> traps,
                           std::span<const Bytes> inner,
                           std::span<const std::array<uint8_t, 32>> commitments);

// Stage 3. `per_group[g]` is group g's decoded plaintexts (NIZK: they are
// concatenated in gid order) or gathered inner ciphertexts (trap: decrypted
// on `workers` threads in gather order once the trustees release the key
// on `reports`; a refusal aborts the result). Moves out of per_group.
RoundResult FinalizeExits(Variant variant, const Trustees* trustees,
                          std::span<const GroupReport> reports,
                          std::span<std::vector<Bytes>> per_group,
                          size_t workers);

}  // namespace atom

#endif  // SRC_CORE_EXIT_H_
