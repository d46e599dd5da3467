// One full Atom protocol round, run in process with real cryptography.
//
// The Round owns the network for one epoch: the group layout (sampled from
// the beacon), one DKG per group, the trustees (trap variant), the mixing
// topology, and the submission intake. Intake is sharded per entry group —
// each group's servers verify and accept submissions behind their own lock,
// so many client threads submit concurrently — and every call to
// TakeEngineRound drains the accepted batch (ciphertexts, trap commitments,
// raw submissions for blame) into one self-contained EngineRound, so a
// single key epoch serves a whole pipeline of engine rounds. Tests,
// examples, and the single-group benchmarks all drive the protocol through
// this class; the discrete-event simulator (src/sim) replays the identical
// control flow against a cost model for network-scale experiments.
#ifndef SRC_CORE_ROUND_H_
#define SRC_CORE_ROUND_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "src/core/blame.h"
#include "src/core/client.h"
#include "src/core/engine.h"
#include "src/core/group_runtime.h"
#include "src/core/trustees.h"
#include "src/crypto/schnorr.h"
#include "src/topology/groups.h"
#include "src/topology/permnet.h"
#include "src/util/mpsc.h"

namespace atom {

struct RoundConfig {
  AtomParams params;
  Bytes beacon;        // public randomness for this round's group formation
  size_t workers = 1;  // intra-server parallelism
  // Bound on each entry-group shard's streaming-intake ring (rounded up to
  // a power of two). A full ring fails StreamSubmit — the backpressure
  // signal a gateway turns into withheld client credit.
  size_t stream_queue_capacity = 4096;
};

// One queued streaming submission. Exactly one of nizk/trap is populated,
// matching the round's variant; `cookie` is an opaque caller correlation
// tag handed back by the pump's completion callback (a gateway maps it to
// the connection + sequence number awaiting the verdict).
struct StreamedSubmission {
  NizkSubmission nizk;
  TrapSubmission trap;
  uint64_t cookie = 0;
  // Optional client signature over the submission bytes (the gateway fills
  // these from the wire frame and the registry key for the connection).
  // The pump batch-verifies every signed item in a drained span with one
  // MSM (SchnorrVerifyBatch) before any proof work runs; a bad
  // signature rejects the item without touching its proofs.
  bool has_sig = false;
  Point sig_pk;
  SchnorrSignature sig;
  Bytes sig_msg;
};

// RoundResult lives in src/core/exit.h (shared with the engine-native exit
// phase, which produces it inside RoundEngine::RunToCompletion).

class Round {
 public:
  // Forms groups from the beacon, runs every group's DKG and the trustee
  // DKG. Deterministic given (config, rng state).
  Round(RoundConfig config, Rng& rng);

  size_t NumGroups() const { return groups_.size(); }
  Variant variant() const { return config_.params.variant; }
  const Point& EntryPk(uint32_t gid) const;
  const Point& TrusteePk() const;
  const MessageLayout& layout() const { return layout_; }
  GroupRuntime& group(uint32_t gid) { return *groups_[gid]; }

  // Optional registered-client check, wired by a deployment that holds a
  // client registry (src/net/registry.h): when set, a submission carrying
  // a non-anonymous client id the predicate rejects fails intake even if
  // its proofs verify. Set during setup, before any submission arrives
  // (the hook is read without synchronization on the hot path).
  void SetClientAuth(std::function<bool(uint64_t client_id)> fn);

  // Submission intake, sharded per entry group: proof verification runs
  // outside any lock, acceptance appends under the target group's shard
  // lock, so submissions from many threads are safe and never lost or
  // double-counted. A submission is rejected (returns false) when its
  // proofs fail, its entry group is out of range, or another accepted
  // submission to the same entry group in the current intake epoch
  // already carried the same non-anonymous client id (duplicate ids would
  // otherwise double-count and poison the exit checks). Ids are scoped to
  // the entry group, matching the paper's model of users registered with
  // one group — the submission proof binds the gid, so an id cannot
  // wander between groups unnoticed by its own group's servers.
  bool SubmitNizk(const NizkSubmission& submission);
  bool SubmitTrap(const TrapSubmission& submission);

  // Batch intake: verifies many submissions concurrently on the shared
  // ThreadPool (`workers` bounds the fan-out), then accepts the valid ones
  // in order. accepted[i] mirrors what SubmitX(submissions[i]) would have
  // returned; acceptance order is deterministic (submission order), which
  // concurrent single submissions do not guarantee.
  std::vector<bool> SubmitNizkBatch(std::span<const NizkSubmission> subs,
                                    size_t workers);
  std::vector<bool> SubmitTrapBatch(std::span<const TrapSubmission> subs,
                                    size_t workers);

  // Streaming intake (millions-of-users ingest): each entry-group shard
  // owns a bounded lock-free MPSC ring. Many reader threads StreamSubmit
  // decoded submissions without taking any lock; false means the target
  // shard's ring is full (backpressure) or the entry gid is out of range —
  // nothing was queued either way. Queued submissions are NOT yet part of
  // the intake epoch: a pump must drain them through verification.
  bool StreamSubmit(StreamedSubmission item);

  // Drains everything currently queued on shard `gid` through the usual
  // pool-verified batch acceptance (SubmitNizkBatch/SubmitTrapBatch
  // semantics, including duplicate-id rejection), invoking `done` once per
  // drained submission in queue order. Returns the number drained. SINGLE
  // CONSUMER per shard: concurrent PumpStream calls for the same gid are
  // undefined; gateways serialize pumps on a per-shard executor, which is
  // exactly what lets verification of span k overlap the socket reads
  // producing span k+1.
  size_t PumpStream(uint32_t gid, size_t workers,
                    const std::function<void(uint64_t cookie, bool accepted)>&
                        done);

  // Racy depth estimate of one shard's streaming ring (monitoring).
  size_t StreamDepth(uint32_t gid) const;

  // Optional fault injection for one (layer, group).
  struct Evil {
    size_t layer = 0;
    uint32_t gid = 0;
    MaliciousAction action;
  };

  // Runs T mixing iterations plus the exit phase. A thin wrapper: it
  // drains the intake epoch into one engine round (TakeEngineRound) and
  // blocks on RoundEngine::RunToCompletion, which executes mixing AND the
  // exit phase (trap sorting, trustee decision, decryption) as hop tasks
  // and produces the RoundResult. Every run — completed or aborted —
  // consumes the accepted submissions, so submit again before running
  // another round. After an aborted trap round, BlameEntryGroup identifies
  // the culprits; note §4.6 blame reveals the entry key, so a real
  // deployment re-keys with a fresh Round afterwards.
  RoundResult Run(Rng& rng, const Evil* evil = nullptr);

  // Variant with several independent malicious actions (§7 intersection-
  // attack analysis: κ tamperings survive undetected only with
  // probability 2^-κ).
  RoundResult RunWithEvils(Rng& rng, std::span<const Evil> evils);

  // Pipelined drivers' building block: drains the current intake epoch —
  // entry batches, THIS batch's trap commitments, and the raw submissions
  // (kept for blame) — into a self-contained EngineRound that carries an
  // ExitPlan, then starts a fresh epoch. Submit the spec to a RoundEngine
  // (several at once pipeline through the network) and read the
  // RoundResult from EngineRoundResult::round; a fault or trap mismatch in
  // one taken round cannot corrupt another, because each spec owns its
  // commitment set. RunWithEvils is exactly
  // engine.RunToCompletion(TakeEngineRound(evils, rng)).round.
  EngineRound TakeEngineRound(std::span<const Evil> evils, Rng& rng);

  // §4.6: after a disrupted trap round, an entry group reveals its key and
  // identifies malformed submissions. Returns indices into that group's
  // accepted submissions, in acceptance order. The one-argument form
  // inspects the most recently drained intake epoch (submissions accepted
  // afterwards cannot mask a disrupted round's cheater); before the first
  // drain it inspects the pending batch. A pipelined driver with several
  // epochs in flight passes the aborted spec's `intake_epoch` instead —
  // the Round retains the last kBlameHistoryEpochs drained epochs'
  // submissions, so a cheater in round i is still identifiable after
  // rounds i+1, i+2, ... were taken.
  static constexpr size_t kBlameHistoryEpochs = 16;
  BlameResult BlameEntryGroup(uint32_t gid);
  BlameResult BlameEntryGroup(uint32_t gid, uint64_t intake_epoch);

  // Drops one epoch's retained submissions (no-op if already pruned).
  // Blame data only matters for disrupted rounds; a pipelined driver
  // calls this when a round completes cleanly so steady-state retention
  // stays near zero instead of pinning kBlameHistoryEpochs rounds of
  // ciphertexts. Run/RunWithEvils release their epoch automatically on a
  // clean completion.
  void ReleaseBlameEpoch(uint64_t intake_epoch);

  // §4.5 buddy groups: every server escrows its share with the next group
  // (gid+1 mod G), threshold ⌈k/2⌉+1, so a replacement can rebuild any
  // share as long as the buddy group is mostly online. Call once after
  // construction; then RecoverServer() restores a server that failed beyond
  // the h-1 tolerance.
  void EscrowAllShares(Rng& rng);
  bool RecoverServer(uint32_t gid, uint32_t server_index);

 private:
  // One entry group's share of the intake: its accepted batch and (trap
  // variant) the registered trap commitments and raw submissions, plus the
  // client ids seen this epoch. Guarded by its own mutex so groups accept
  // in parallel — the paper's millions-of-users entry path is exactly this
  // per-group partition.
  struct IntakeShard {
    explicit IntakeShard(size_t stream_capacity) : stream(stream_capacity) {}
    std::mutex mu;
    CiphertextBatch batch;
    std::vector<std::array<uint8_t, 32>> commitments;
    std::vector<TrapSubmission> submissions;
    std::set<uint64_t> clients;
    // Streaming side-entrance: pushed lock-free by reader threads, drained
    // by this shard's single pump into the verified state above.
    MpscRing<StreamedSubmission> stream;
  };

  // What one TakeEngineRound drains out of the shards.
  struct IntakeEpoch {
    uint64_t id = 0;
    std::vector<CiphertextBatch> entry;
    std::vector<std::vector<std::array<uint8_t, 32>>> commitments;
  };

  Scalar GroupSecret(uint32_t gid) const;  // threshold-reconstructed
  bool ClientAllowed(uint64_t client_id) const;
  bool AcceptNizk(const NizkSubmission& submission);
  bool AcceptTrap(const TrapSubmission& submission);
  IntakeEpoch DrainIntake();

  RoundConfig config_;
  MessageLayout layout_;
  std::function<bool(uint64_t)> client_auth_;  // null = no registry wired
  GroupLayout group_layout_;
  std::vector<std::unique_ptr<GroupRuntime>> groups_;
  std::unique_ptr<Trustees> trustees_;  // trap variant only
  std::unique_ptr<Topology> topology_;

  std::vector<std::unique_ptr<IntakeShard>> intake_;
  // Drained epochs' submissions (newest last, pruned to
  // kBlameHistoryEpochs), so blame targets the batch that actually ran —
  // by epoch id for pipelined drivers, newest by default. epoch_mu_
  // guards the book: a driver thread may drain the next epoch while
  // another thread blames an aborted one.
  std::mutex epoch_mu_;
  uint64_t next_epoch_ = 1;
  std::map<uint64_t, std::vector<std::vector<TrapSubmission>>>
      blame_history_;

  // Buddy escrow: escrows_[gid][i] holds group gid's server i+1's share,
  // sub-shared to the buddy group (gid+1 mod G).
  std::vector<std::vector<BuddyEscrow>> escrows_;
};

}  // namespace atom

#endif  // SRC_CORE_ROUND_H_
