// Deterministic fault injection for the net stack (adversarial scenario
// harness). A FaultPlan is a seeded description of everything that goes
// wrong in a deployment: per-frame faults (drop / delay / duplicate /
// truncate / corrupt) drawn from a ChaCha20 PRF so every decision replays
// from the seed, a per-process stall (straggler), severed links scoped to
// round-id ranges (partition), tamper rounds (byzantine mixer, applied by
// NodeProcess to outbound hop batches), and forced client disconnects
// (gateway-side churn).
//
// Determinism contract: each (sender, receiver) stream keeps its own frame
// counter, and decision n on stream s is PRF(seed, s, n) — so a replayed
// run makes identical per-stream decisions regardless of how OS scheduling
// interleaves streams against each other. The scenario invariants
// (abort-or-complete, bounded blame, byte-identical non-faulted rounds)
// hold for every interleaving; the seed pins which frames are hit.
//
// Plans cross process boundaries as a textual spec (Parse/ToSpec), which
// is how examples/atom_server.cpp --fault-spec configures a fleet member
// from the scenario driver.
#ifndef SRC_NET_FAULTS_H_
#define SRC_NET_FAULTS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/util/bytes.h"

namespace atom {

enum class FaultAction : uint8_t {
  kNone = 0,
  kDrop = 1,       // frame silently discarded; the sender believes it left
  kDelay = 2,      // the plan's delay added to the frame's propagation
  kDuplicate = 3,  // frame sent twice (both genuinely sealed)
  kTruncate = 4,   // sealed record truncated -> receiver AEAD reject
  kCorrupt = 5,    // one bit of the sealed record flipped -> same
};

// One frame's verdict. mutate_salt drives Mutate deterministically, so a
// replay corrupts the same bit of the same frame.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  std::chrono::milliseconds delay{0};
  uint64_t mutate_salt = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(uint64_t seed) { set_seed(seed); }

  // ---- Configuration (set before the deployment starts; not locked
  // against concurrent NextDecision).

  void set_seed(uint64_t seed);
  uint64_t seed() const { return seed_; }

  // Per-frame fault probabilities in [0, 1]. Drawn cumulatively from one
  // PRF sample per frame, in this order; at most one action fires.
  void set_drop_rate(double p) { drop_rate_ = p; }
  void set_duplicate_rate(double p) { duplicate_rate_ = p; }
  void set_truncate_rate(double p) { truncate_rate_ = p; }
  void set_corrupt_rate(double p) { corrupt_rate_ = p; }
  void set_delay(double p, std::chrono::milliseconds d) {
    delay_rate_ = p;
    delay_ = d;
  }
  double drop_rate() const { return drop_rate_; }

  // Straggler: every outbound frame from this participant occupies its
  // link this long before its propagation starts, one frame after another
  // per link (on top of any per-frame kDelay). The mesh folds it into the
  // frame's due time; no thread sleeps on it.
  void set_stall(std::chrono::milliseconds stall) { stall_ = stall; }
  std::chrono::milliseconds stall() const { return stall_; }

  // Partition: severs the undirected server pair (a, b) for round ids in
  // [first_round, last_round] (inclusive; defaults cover every round).
  // A severed envelope send fails exactly like an unreachable peer, so
  // the existing failure conversion produces the round-scoped abort.
  void SeverLink(uint32_t a, uint32_t b, uint64_t first_round = 0,
                 uint64_t last_round = UINT64_MAX);
  bool LinkSevered(uint64_t round_id, uint64_t a, uint64_t b) const;

  // Byzantine mixer: rounds in [first_round, last_round] get their
  // outbound hop batches tampered by the hosting NodeProcess.
  void TamperRounds(uint64_t first_round, uint64_t last_round);
  bool TamperRound(uint64_t round_id) const;

  // Gateway churn: probability that a client connection is killed right
  // after a kSubmit frame is read (mid-stream disconnect).
  void set_client_disconnect_rate(double p) { client_disconnect_rate_ = p; }
  // Draws from the client's own PRF stream; true = kill the link now.
  bool DisconnectClient(uint64_t client_id);

  // ---- Per-frame decisions (thread-safe).

  // The (sender, receiver) stream identifier used by the mesh.
  static uint64_t StreamKey(uint64_t self_id, uint64_t peer_id) {
    return (self_id << 32) ^ peer_id;
  }

  // Draws the next decision for a stream and advances its counter.
  FaultDecision NextDecision(uint64_t stream_key);

  // Applies a kTruncate/kCorrupt decision to a sealed record in place.
  static void Mutate(const FaultDecision& decision, Bytes& frame);

  // Deterministically flips one byte of an encoded payload (the byzantine
  // tamper applied to outbound hop batches); salt picks the byte.
  static void FlipByte(uint64_t salt, Bytes& bytes);

  // ---- Observability (what actually fired; for scenario reports).

  struct Counts {
    uint64_t dropped = 0;
    uint64_t delayed = 0;
    uint64_t duplicated = 0;
    uint64_t truncated = 0;
    uint64_t corrupted = 0;
    uint64_t severed = 0;
    uint64_t stalled = 0;
    uint64_t disconnects = 0;
  };
  Counts counts() const;
  void CountSevered() { severed_.fetch_add(1, std::memory_order_relaxed); }
  void CountStalled() { stalled_.fetch_add(1, std::memory_order_relaxed); }

  // ---- Textual spec (crosses the fork/exec boundary to atom_server).
  //
  //   seed=N            PRF seed (decimal)
  //   drop=P dup=P trunc=P corrupt=P      probabilities (decimal floats)
  //   delay=MS@P        per-frame delay MS milliseconds with probability P
  //   stall=MS          straggler stall per outbound frame
  //   sever=A-B@R1-R2   sever servers A,B for rounds R1..R2 (@.. optional)
  //   tamper=R1-R2      tamper outbound hop batches for rounds R1..R2
  //   disconnect=P      client disconnect probability (gateway side)
  //
  // Fields are ';'-separated; sever/tamper may repeat. Unknown fields
  // reject the whole spec (a typo must not silently weaken a scenario).
  // Returns nullptr on a malformed spec (the plan holds atomics, so it
  // travels by shared_ptr — the same handle every hook takes).
  static std::shared_ptr<FaultPlan> Parse(const std::string& spec);
  std::string ToSpec() const;

 private:
  uint64_t Draw(uint64_t stream_key, uint64_t index, uint64_t* salt) const;

  struct SeverRule {
    uint32_t a = 0;
    uint32_t b = 0;
    uint64_t first_round = 0;
    uint64_t last_round = UINT64_MAX;
  };
  struct TamperRule {
    uint64_t first_round = 0;
    uint64_t last_round = 0;
  };

  uint64_t seed_ = 0;
  std::array<uint8_t, 32> root_{};
  double drop_rate_ = 0;
  double duplicate_rate_ = 0;
  double truncate_rate_ = 0;
  double corrupt_rate_ = 0;
  double delay_rate_ = 0;
  std::chrono::milliseconds delay_{0};
  std::chrono::milliseconds stall_{0};
  double client_disconnect_rate_ = 0;
  std::vector<SeverRule> severs_;
  std::vector<TamperRule> tampers_;

  mutable std::mutex streams_mu_;
  std::map<uint64_t, uint64_t> stream_counters_;

  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> delayed_{0};
  std::atomic<uint64_t> duplicated_{0};
  std::atomic<uint64_t> truncated_{0};
  std::atomic<uint64_t> corrupted_{0};
  std::atomic<uint64_t> severed_{0};
  std::atomic<uint64_t> stalled_{0};
  std::atomic<uint64_t> disconnects_{0};
};

}  // namespace atom

#endif  // SRC_NET_FAULTS_H_
