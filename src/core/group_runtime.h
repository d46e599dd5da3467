// The anytrust-group protocol: Algorithm 1 (plain, trap variant) and
// Algorithm 2 (with NIZKs) from §4.2-§4.3, with threshold (many-trust)
// participation from §4.5.
//
// A group hop takes a batch of ciphertext vectors encrypted under this
// group's key (Y = ⊥) and produces β batches reencrypted toward the β
// neighbour groups (or decrypted plaintext points at the exit layer):
//
//   1. Shuffle: each participating server in order rerandomizes and
//      permutes the whole batch (ShuffleStep; in NIZK mode with a
//      ShufProof, CheckShuffleStep).
//   2. Divide: the last server's output splits into β contiguous
//      sub-batches (DivideBatch).
//   3. Decrypt-and-reencrypt: each participating server in order strips its
//      (Lagrange-weighted) layer and rewraps sub-batch i toward neighbour
//      group i (ReEncStep; in NIZK mode with ReEncProofs, CheckReEncStep),
//      and the last step's output is finalized (FinalizeHop).
//
// The per-server step functions below are the only implementation of these
// steps. GroupRuntime::RunHop runs the whole chain in one call, holding
// every member's key; in NIZK mode it checks all 2k steps' proofs at once
// (CheckHopProofs: one BaseMul and one MSM, every proof scaled by an outer
// weight), and only when that check fails checks the steps one by one in
// chain order to name the server to blame. AtomNode (src/core/node.h) runs
// one server's steps as messages between processes and checks every step
// it receives on its own.
//
// Fault injection: a MaliciousAction lets tests and benches make one server
// misbehave (tamper, drop+replace, duplicate) at a chosen stage, to verify
// that the NIZK variant aborts and the trap variant detects at exit.
#ifndef SRC_CORE_GROUP_RUNTIME_H_
#define SRC_CORE_GROUP_RUNTIME_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/params.h"
#include "src/crypto/dkg.h"
#include "src/crypto/shuffle.h"
#include "src/crypto/sigma.h"
#include "src/crypto/threshold.h"

namespace atom {

struct MaliciousAction {
  enum class Kind {
    kNone,
    kTamperDuringShuffle,   // replace one output ciphertext after shuffling
    kTamperDuringReEnc,     // maul one ciphertext during reencryption
    kDuplicateDuringShuffle,  // duplicate one message over another
  };
  Kind kind = Kind::kNone;
  uint32_t server_index = 0;  // 1-based index of the misbehaving server
  size_t target_message = 0;  // which message to hit
};

// Timing breakdown of one hop (for the evaluation harness), summed over
// the participating servers.
struct HopStats {
  double shuffle_seconds = 0;  // shuffle steps, incl. proof generation
  double reenc_seconds = 0;    // reencryption steps, incl. proof generation
  // NIZK: the one check of every server's proofs (CheckHopProofs), plus
  // the per-step checks that name the server when it fails.
  double verify_seconds = 0;
  size_t messages = 0;
  size_t participants = 0;
};

struct HopResult {
  bool aborted = false;
  std::string abort_reason;
  // batches[i] goes to neighbour i; at the exit layer there is exactly one
  // batch whose ciphertexts are fully stripped (plaintext in .c).
  std::vector<CiphertextBatch> batches;
  HopStats stats;
};

// One group's runtime state: its id, DKG output, and all member keys (the
// in-process driver holds every server's key; a real deployment would hold
// only its own).
class GroupRuntime {
 public:
  GroupRuntime(uint32_t gid, DkgResult dkg);

  uint32_t gid() const { return gid_; }
  const Point& pk() const { return dkg_.pub.group_pk; }
  // Precomputed table for pk(), built once at construction and reused by
  // every shuffle/rerandomization this group performs (and by the engine
  // when it encrypts dummy padding under this group's key).
  const FixedBaseTable& pk_table() const { return *pk_table_; }
  const std::shared_ptr<const FixedBaseTable>& shared_pk_table() const {
    return pk_table_;
  }
  const DkgResult& dkg() const { return dkg_; }

  // Marks a server (1-based) as failed; it will not participate. Fails the
  // group if fewer than Threshold() servers remain alive.
  void MarkFailed(uint32_t server_index);
  size_t AliveCount() const;

  // Restores a failed server with a (possibly buddy-recovered) key.
  void Restore(const DkgServerKey& key);

  // Runs one hop. `next_pks` holds the β neighbour group keys; empty means
  // exit layer (final decryption). `workers` bounds intra-server
  // parallelism. `evil` optionally injects one malicious action.
  // `next_tables`, when non-empty, is parallel to `next_pks` and lets a
  // caller running many hops toward the same neighbours share their rewrap
  // tables: a non-null entry is used as the table for that neighbour key,
  // and into a null entry the hop stores the table it builds when the
  // reuse amortizes one, for the caller to pass again. The output does not
  // depend on which table is used.
  HopResult RunHop(
      const CiphertextBatch& input, std::span<const Point> next_pks,
      Variant variant, Rng& rng, size_t workers = 1,
      const MaliciousAction* evil = nullptr,
      std::span<std::shared_ptr<const FixedBaseTable>> next_tables = {})
      const;

 private:
  uint32_t gid_;
  DkgResult dkg_;
  // shared_ptr keeps GroupRuntime copyable; the table is immutable.
  std::shared_ptr<const FixedBaseTable> pk_table_;
  std::vector<bool> alive_;
};

// ---- Per-server steps of Algorithms 1 and 2.
//
// Each step draws from `rng` in a fixed order, so a seeded chain replays
// byte for byte whichever driver runs it. `workers` bounds the step's
// intra-server parallelism; the output does not depend on it.

struct ShuffleStepResult {
  CiphertextBatch output;
  std::optional<ShuffleProof> proof;  // NIZK only
};

// One server's shuffle of the whole batch under the group key.
// Requires IsShuffleInput(input).
ShuffleStepResult ShuffleStep(const FixedBaseTable& group_pk,
                              const CiphertextBatch& input, Variant variant,
                              Rng& rng, size_t workers = 1);

// Checks a NIZK shuffle step; false when `proof` is null or does not
// verify (malformed batches included).
bool CheckShuffleStep(const Point& group_pk, const CiphertextBatch& input,
                      const CiphertextBatch& output, const ShuffleProof* proof,
                      size_t workers = 1);

// Splits the shuffled batch into β contiguous sub-batches, the first
// (size % β) of them one message longer.
std::vector<CiphertextBatch> DivideBatch(CiphertextBatch batch, size_t beta);

// Rewrap tables for the β neighbour keys of one hop, built where `steps`
// reencryption steps over the sub-batch amortize one. A non-null entry of
// `cached` (parallel to next_pks, or empty) is used as is; a table built
// here is stored back into a null entry for the caller to pass again.
std::vector<std::shared_ptr<const FixedBaseTable>> RewrapTables(
    std::span<const Point> next_pks, std::span<const CiphertextBatch> subs,
    size_t steps,
    std::span<std::shared_ptr<const FixedBaseTable>> cached = {});

struct ReEncStepResult {
  std::vector<CiphertextBatch> outputs;  // one per sub-batch
  // NIZK: one proof per component, in (sub-batch, message, component)
  // order.
  std::vector<ReEncProof> proofs;
};

// One server's decrypt-and-reencrypt step over all β sub-batches with its
// Lagrange-weighted share (`share`, public `share_pub`). `next_pks` holds
// the β neighbour keys (empty at the exit layer, where inputs has one
// sub-batch); `tables` is RewrapTables' output for them.
ReEncStepResult ReEncStep(
    const Scalar& share, const Point& share_pub,
    std::span<const CiphertextBatch> inputs, std::span<const Point> next_pks,
    std::span<const std::shared_ptr<const FixedBaseTable>> tables,
    Variant variant, Rng& rng, size_t workers = 1);

// Checks a NIZK reencryption step in one batch verification; false when
// the shapes of inputs, outputs and proofs do not match or a proof fails.
bool CheckReEncStep(const Point& share_pub,
                    std::span<const CiphertextBatch> inputs,
                    std::span<const CiphertextBatch> outputs,
                    std::span<const Point> next_pks,
                    std::span<const ReEncProof> proofs);

// Every proof of one NIZK hop, as RunHop collects them: entry s is the
// s-th participating server's.
struct HopProofs {
  std::vector<CiphertextBatch> shuffled;  // shuffle outputs
  std::vector<ShuffleProof> shuffle_proofs;
  std::vector<Point> share_pubs;  // Lagrange-weighted share keys
  std::vector<std::vector<CiphertextBatch>> reencrypted;  // ReEnc outputs
  std::vector<std::vector<ReEncProof>> reenc_proofs;
};

// Checks every proof of a NIZK hop over `input` toward `next_pks` in one
// BaseMul and one MSM, split across `workers`: the k shuffle proofs over
// input → shuffled[0] → ... → shuffled[k-1] and the k reencryption steps,
// the first of which reencrypts DivideBatch(shuffled[k-1]). Batches between
// steps, each ciphertext's Y, H, the H[i], pk and the neighbour keys
// enter the MSM once. False when any proof fails or the record's shapes
// do not chain; it names no step (CheckShuffleStep and CheckReEncStep do).
bool CheckHopProofs(const Point& group_pk, const CiphertextBatch& input,
                    std::span<const Point> next_pks, const HopProofs& hop,
                    size_t workers = 1);

// Marks the hop complete on the last step's output (Y back to ⊥).
void FinalizeHop(std::vector<CiphertextBatch>& batches);

// Extracts the plaintext points from an exit batch (all layers stripped).
std::optional<std::vector<std::vector<Point>>> ExitPlaintexts(
    const CiphertextBatch& exit_batch);

}  // namespace atom

#endif  // SRC_CORE_GROUP_RUNTIME_H_
