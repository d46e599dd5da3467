// DistributedRoundDriver: RoundEngine semantics over the TCP peer mesh.
//
// The in-process RoundEngine (src/core/engine.h) pipelines rounds through
// the permutation network on one machine; this driver runs the same
// Submit(EngineRound)/Wait(ticket) contract against a fleet of
// NodeProcess servers, one host per topology group. Submit ships the
// round's spec — root key, topology adjacency, host map, group keys,
// layout, and THIS round's trap commitments — as a kBeginRound to every
// hosting server at once and waits for all the acks together (one round
// trip, whatever the host count), then queues the entry batches as
// round-tagged kHopBatch envelopes and returns: round r+1's intake enters
// the network while round r is still mixing, which is the paper's §4.7
// throughput mode with no global run barrier on the wire. Wait retires a
// round by queueing kRoundDone on the mesh's sender lanes, so neither
// call waits on the wire once per host.
//
// Execution is split along the engine's task boundaries, each stage
// running the src/core function the engine runs:
//
//   * mixing hops and the exit sort/check stages run on the hosting
//     servers (see src/net/node_process.h), so a seeded round produces
//     byte-identical results on either executor;
//   * the finalize stage (FinalizeExits) runs here, on the Wait caller's
//     thread, from the servers' kExitReport/kExitPlain messages gathered
//     in ascending group order.
//
// Failures are per-round, never per-deployment: a peer that dies, a hop
// that trips, or a round that exceeds its deadline aborts THAT round with
// a round-scoped reason while other in-flight rounds keep mixing; a fresh
// round submitted after the roster is repaired completes normally.
//
// Lifetime: the driver registers itself as the mesh's envelope sink and
// unregisters in its destructor (the mesh blocks the unregistration on
// any in-flight callback, so teardown is race-free); the mesh itself
// must simply outlive the driver.
#ifndef SRC_NET_ROUND_DRIVER_H_
#define SRC_NET_ROUND_DRIVER_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/net/mesh.h"

namespace atom {

class DistributedRoundDriver {
 public:
  // `mesh` must be a driver-role mesh with its roster already connected
  // (ConnectAndPushRoster) and must outlive this object. hosts[gid] names
  // the server executing group gid's hops; every named server must have
  // received that group's kHostGroup material.
  DistributedRoundDriver(TcpPeerMesh* mesh, std::vector<uint32_t> hosts);
  ~DistributedRoundDriver();

  DistributedRoundDriver(const DistributedRoundDriver&) = delete;
  DistributedRoundDriver& operator=(const DistributedRoundDriver&) = delete;

  // Ships the round to the fleet and starts it. Mirrors
  // RoundEngine::Submit: entry batches are moved out of the spec, the
  // ticket is waited on once, and several submitted rounds overlap in
  // flight. The spec must carry an ExitPlan, and spec.faults must be
  // empty (fault injection is a test-side concern; over the wire a fault
  // is a hostile server). Never blocks on
  // mixing — only on one round trip, the slowest host's kBeginRound ack.
  // A host that does not ack aborts this round only, with a reason that
  // names every such host.
  uint64_t Submit(EngineRound round);

  // Blocks until the round resolves and returns its result — byte-
  // identical to RoundEngine::Wait for the same (spec, seed) when the
  // round completes cleanly. A round that exceeds the deadline aborts
  // with a round-scoped reason instead of hanging.
  EngineRoundResult Wait(uint64_t ticket);

  // Rounds submitted but not yet waited/resolved.
  size_t InFlight() const;

  void set_round_timeout(std::chrono::milliseconds timeout);

 private:
  struct PendingRound {
    uint64_t round_id = 0;
    size_t width = 0;
    Variant variant = Variant::kTrap;
    size_t hop_workers = 1;
    const Trustees* trustees = nullptr;
    std::chrono::steady_clock::time_point deadline;

    // FinalizeExits' inputs, one slot per gid: each exit group's
    // kExitPlain plaintexts (NIZK), or each destination group's
    // kExitReport and gathered inner ciphertexts (trap).
    std::vector<GroupReport> reports;
    std::vector<std::vector<Bytes>> per_group;
    std::vector<bool> got;
    size_t seen = 0;

    bool aborted = false;
    std::string abort_reason;  // first abort wins
    // Trace::NowUs() at Submit (sampled when tracing/timing is on, -1
    // otherwise) so Wait can emit the round's full driver-side lifetime.
    int64_t submit_us = -1;

    bool Complete() const { return aborted || seen >= width; }
  };

  void HandleEnvelope(Envelope envelope);
  void HandlePeerDown(uint32_t peer_id);
  void AbortLocked(PendingRound& round, std::string reason);
  EngineRoundResult Finalize(PendingRound& round);

  TcpPeerMesh* mesh_;
  const std::vector<uint32_t> hosts_;
  std::vector<uint32_t> unique_hosts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, std::shared_ptr<PendingRound>> rounds_;
  std::chrono::milliseconds round_timeout_{std::chrono::seconds(120)};
};

}  // namespace atom

#endif  // SRC_NET_ROUND_DRIVER_H_
