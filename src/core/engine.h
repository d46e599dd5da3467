// Dependency-scheduled round execution (§4.7 throughput mode, executed for
// real instead of estimated).
//
// The RoundEngine runs the permutation network as a DAG of per-group hop
// tasks on the shared ThreadPool, with no barrier between layers or
// rounds:
//
//   * hop (round r, layer ℓ, group g) becomes runnable as soon as all of
//     its inbound sub-batches from layer ℓ-1 have arrived — groups in the
//     same layer never wait for each other;
//   * several rounds can be in flight at once, so a new batch enters the
//     network every layer-time instead of every round-time — the pipelined
//     deployment the paper describes but does not evaluate (§4.7), and the
//     executed counterpart of EstimatePipelined (src/sim/netsim.h);
//   * intra-hop crypto parallelism (GroupRuntime::RunHop's ParallelFor)
//     runs on the same pool, so per-ciphertext work and cross-group /
//     cross-layer pipelining compose instead of fighting for threads;
//   * an EngineRound carrying an ExitPlan extends its DAG past the last
//     mixing layer with exit-stage tasks (sort per group, §4.4 checks per
//     group, one trustee/decryption finalize), so the exit phase of round
//     r overlaps the mixing of rounds r+1… instead of running serially on
//     the caller after the DAG drains.
//
// Each task runs a stage function the mesh fleet shares
// (src/core/dataflow.h). A MaliciousAction that trips a hop marks only its
// own round aborted; the round's remaining hops drain as cheap no-ops
// (empty batches) and other in-flight rounds are untouched. Every hop draws its
// randomness from a private ChaCha20 DRBG key-separated from the round's
// 256-bit root key, so no Rng is shared across threads and a (spec, seed)
// pair replays deterministically.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/dataflow.h"
#include "src/core/exit.h"
#include "src/core/group_runtime.h"
#include "src/topology/permnet.h"
#include "src/util/parallel.h"

namespace atom {

// One malicious action pinned to a (layer, group) hop of one round.
struct HopFault {
  size_t layer = 0;
  uint32_t gid = 0;
  MaliciousAction action;
};

// Engine-native exit phase (§4.4): when present on an EngineRound the
// engine appends exit-stage tasks to the hop DAG — one sort task per group
// as its exit hop drains, one check task per destination group behind a
// sort barrier (trap variant), and a finalize task running the trustee
// decision and inner-ciphertext decryption — so pipelined rounds complete
// fully inside the engine instead of leaving the exit as a serial tail on
// the caller. Round i's exit work overlaps round i+1's mixing on the same
// pool.
struct ExitPlan {
  MessageLayout layout;
  // Trap variant only: the trustee group (shared across engine rounds —
  // the all-clear decision is const and thread-safe) and THIS engine
  // round's per-entry-group trap commitments. Commitments are keyed to
  // the engine round, not accumulated across rounds, so one key epoch
  // serves a whole pipeline without cross-round contamination.
  const Trustees* trustees = nullptr;
  std::vector<std::vector<std::array<uint8_t, 32>>> commitments;
};

// Specification of one in-flight round: one batch traversing the whole
// permutation network. Entry-phase verification stays with the caller
// (Round's sharded intake); the exit phase runs inside the engine when an
// ExitPlan is attached, and stays with the caller otherwise.
struct EngineRound {
  const Topology* topology = nullptr;
  // One runtime per topology vertex; RunHop is const and thread-safe, so
  // the same GroupRuntime may appear in many in-flight rounds.
  std::vector<const GroupRuntime*> groups;
  Variant variant = Variant::kTrap;
  size_t hop_workers = 1;  // intra-hop ParallelFor width
  // Per-group entry batches, moved into the engine (no copy).
  std::vector<CiphertextBatch> entry;
  std::vector<HopFault> faults;
  // 256-bit root key for this round's mixing randomness (fill from the
  // driver's Rng). Every hop's private ChaCha20 DRBG is key-separated from
  // it by hop index, so streams are independent, unpredictable with the
  // full key entropy, and replayable from (spec, seed).
  std::array<uint8_t, 32> seed{};
  // When set, the engine runs the exit phase natively (see ExitPlan) and
  // the result arrives in EngineRoundResult::round instead of ::exits.
  std::optional<ExitPlan> exit;
  // Driver-side correlation tag, ignored by the engine. Round::
  // TakeEngineRound stamps the intake epoch it drained here so that after
  // an abort the driver can blame the batch that actually ran
  // (Round::BlameEntryGroup(gid, epoch)) even with later epochs taken.
  uint64_t intake_epoch = 0;
};

struct EngineRoundResult {
  bool aborted = false;
  std::string abort_reason;  // "group G layer L: why"
  // Without an ExitPlan: per exit-layer group, fully stripped ciphertexts
  // (plaintext points in .c). Size 0 when the round aborted — check
  // `aborted` before using.
  std::vector<CiphertextBatch> exits;
  // With an ExitPlan: the full round outcome (plaintexts, trap accounting,
  // abort state); `exits` stays empty because the engine consumed them.
  RoundResult round;
};

// The RoundPlan both executors run `round` by; a malformed spec is a
// caller bug (ATOM_CHECK).
RoundPlan PlanEngineRound(const EngineRound& round);

class RoundEngine {
 public:
  // The engine schedules on `pool` and owns no threads itself.
  explicit RoundEngine(ThreadPool* pool);
  // Blocks until every submitted round has drained.
  ~RoundEngine();

  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  // Starts a round's layer-0 hops immediately and returns a ticket.
  // Multiple submitted rounds pipeline through the network concurrently.
  uint64_t Submit(EngineRound round);

  // Blocks until the round drains and returns its result. Each ticket can
  // be waited on once.
  EngineRoundResult Wait(uint64_t ticket);

  // Convenience: one round, drained to completion (the sequential driver).
  EngineRoundResult RunToCompletion(EngineRound round);

 private:
  struct HopNode;
  struct RoundState;

  void ScheduleHop(const std::shared_ptr<RoundState>& rs, size_t layer,
                   uint32_t gid);
  void ExecuteHop(const std::shared_ptr<RoundState>& rs, size_t layer,
                  uint32_t gid);
  void Deliver(const std::shared_ptr<RoundState>& rs, size_t layer,
               uint32_t dst, uint32_t src, CiphertextBatch batch);
  // Exit-stage tasks (scheduled only when the spec carries an ExitPlan).
  void ExecuteExitSort(const std::shared_ptr<RoundState>& rs, uint32_t gid);
  void ExecuteExitCheck(const std::shared_ptr<RoundState>& rs, uint32_t gid);
  void ExecuteExitFinalize(const std::shared_ptr<RoundState>& rs);
  // Marks this round aborted (first reason wins, like a failed hop).
  static void AbortRound(const std::shared_ptr<RoundState>& rs,
                         std::string reason);
  // Every task calls this exactly once; the last one flips `done`.
  static void FinishTask(const std::shared_ptr<RoundState>& rs);

  ThreadPool* pool_;
  std::mutex mu_;
  uint64_t next_ticket_ = 1;
  std::map<uint64_t, std::shared_ptr<RoundState>> rounds_;
};

}  // namespace atom

#endif  // SRC_CORE_ENGINE_H_
