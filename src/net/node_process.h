// NodeProcess: hosts one Atom server inside one OS process and wires it to
// the TCP peer mesh over encrypted links — the deployment shape the paper
// assumes (one server per machine).
//
// The process is natively multi-round: every kBeginRound control message
// opens a round-scoped lane — its own 256-bit root key, its own DRBG
// counters, and its own SerialExecutor on the shared ThreadPool — and
// every envelope demultiplexes into its round's lane by the round id
// stamped on the wire. Lanes are bounded (max_rounds) and evicted on
// kRoundDone, so one slow or wedged round never blocks its successors and
// a dead round's state cannot accumulate.
//
// Two kinds of traffic flow through a round:
//
//  * Chain-protocol steps (kShuffleStep/kReEncStep) drive the hosted
//    AtomNode. They execute on node_serial_ — the one queue that ever
//    touches the AtomNode (shared with JoinGroup), so the single-serial
//    contract holds even when rounds overlap — while their DRBG counters
//    stay per-round: each delivery's private generator is key-separated
//    from its round's root key by (server id, per-round delivery count),
//    so a seeded chain run replays byte-for-byte (tests/chain_harness.h
//    is the serial in-process oracle for it).
//
//  * Engine rounds (kBeginRound carrying a WireRoundSpec) run whole
//    group hops for the groups this process hosts (kHostGroup installs the
//    DKG material) through the RoundEngine's own stage functions
//    (src/core/dataflow.h, exit.h): a full set of kHopBatch sub-batches
//    runs RunRoundHop, and the exit runs distributed — this host sorts its
//    exit batches, ships per-destination buckets (kExitBuckets) to the
//    destination groups' hosts, gathers and checks arrivals, and reports
//    to the driver (kExitReport; NIZK: kExitPlain). A seeded engine round
//    therefore produces byte-identical results over the mesh and in
//    process.
//
// Every control message is acked only after it has been applied, which
// gives the driver a cross-link ordering fence. Failures never hang the
// deployment: an unreachable next-hop peer, a malformed frame, an
// unrunnable plan, a batch of the wrong shape or sender, a missing group
// runtime, or a throwing handler all surface to the driver as a
// round-tagged kAbort envelope, and the process goes on serving later
// rounds.
#ifndef SRC_NET_NODE_PROCESS_H_
#define SRC_NET_NODE_PROCESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "src/core/dataflow.h"
#include "src/core/exit.h"
#include "src/core/group_runtime.h"
#include "src/net/mesh.h"
#include "src/util/parallel.h"

namespace atom {

class NodeProcess {
 public:
  // `identity` is this server's long-term key (its public half is what
  // the roster advertises); `driver_pk` authenticates the driver before
  // any roster exists. `max_rounds` bounds concurrently open round lanes;
  // a kBeginRound past the bound is refused with a round-tagged abort.
  // Its serial lanes run on the process-wide shared pool.
  NodeProcess(uint32_t server_id, Variant variant, KemKeypair identity,
              const Point& driver_pk, size_t max_rounds = 8);

  // Forwards to the mesh's per-peer WAN emulation (see
  // TcpPeerMesh::set_peer_profile); benches shape a uniform WAN or a
  // multi-region topology with these. Set before Start().
  void set_peer_profile(uint32_t peer_id, WanProfile profile);
  // Transport counters (bytes/frames/bundles per peer) for bench rows.
  MeshTransportStats TransportStats() const { return mesh_.Stats(); }
  ~NodeProcess();

  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  bool Listen(uint16_t port = 0);
  uint16_t port() const { return mesh_.listen_port(); }
  void Start();
  void Stop();

  uint32_t server_id() const { return server_id_; }

  // Installs a whole group's DKG output so this process executes that
  // group's engine hops. Normally arrives as a kHostGroup control
  // message; public for in-process tests.
  void HostGroup(uint32_t gid, DkgResult dkg);

  // Test hook (fault injection): mutates every outbound envelope before
  // it is sent — an "evil server" mid-chain for abort-propagation tests.
  // Set before Start().
  void SetOutboundTamper(std::function<void(Envelope&)> fn);

  // Scenario-harness fault injection (src/net/faults.h). Frame-level
  // faults and stalls thread through the mesh; round-ranged tamper rules
  // turn this server into a byzantine mixer (outbound hop batches get a
  // deterministically chosen ciphertext re-pointed, which the §4.4 trap
  // check catches at the exit). Set before Start().
  void SetFaultPlan(std::shared_ptr<FaultPlan> plan);

 private:
  // A hop's sub-batches (one slot per predecessor, in plan order) or a
  // destination group's §4.4 buckets (one per source), off the wire.
  template <typename T>
  struct Arrivals {
    std::vector<T> slots;
    std::vector<bool> got;
    size_t arrived = 0;
    // Fills `slot` of `n`; false when that slot already arrived.
    bool Put(size_t n, size_t slot, T value) {
      if (got.empty()) {
        slots.resize(n);
        got.assign(n, false);
      }
      if (got[slot]) {
        return false;
      }
      got[slot] = true;
      slots[slot] = std::move(value);
      arrived++;
      return true;
    }
  };
  // Everything one round owns on this server. Created by kBeginRound,
  // dropped on kRoundDone; tasks capture it by shared_ptr so a stale task
  // from an evicted round runs against its own (harmless) state.
  struct RoundCtx {
    uint64_t round_id = 0;
    std::array<uint8_t, 32> root{};
    uint64_t delivered = 0;  // chain-protocol DRBG counter
    std::optional<WireRoundSpec> spec;  // engine rounds only
    // key: layer * width + gid
    std::map<uint64_t, Arrivals<CiphertextBatch>> hops;
    std::map<uint32_t, Arrivals<ExitBucket>> exits;  // key: dest gid
    std::atomic<bool> aborted{false};
  };
  // A serial execution lane. The SerialExecutor outlives the rounds that
  // pass through it (lanes are pooled, not created per round), so lane
  // teardown never blocks a reader thread.
  struct Lane {
    SerialExecutor serial;
    std::shared_ptr<RoundCtx> ctx;  // guarded by rounds_mu_
  };

  void HandleControl(uint32_t peer_id, LinkFrame frame);
  void HandleEnvelope(Envelope envelope);  // reader thread -> round lane
  void BeginRound(uint32_t peer_id, BeginRoundMsg msg);
  void FinishRound(uint64_t round_id);
  // Frees the round's lane (if any) and tombstones its id. Needs
  // rounds_mu_.
  void RetireLocked(uint64_t round_id);

  // Lane tasks (serial per round, on the shared pool).
  void Process(const std::shared_ptr<RoundCtx>& ctx, NodeMsg msg);
  void ProcessChain(const std::shared_ptr<RoundCtx>& ctx, NodeMsg msg);
  void ProcessHop(const std::shared_ptr<RoundCtx>& ctx, NodeMsg msg);
  void ProcessExitLayer(const std::shared_ptr<RoundCtx>& ctx, uint32_t gid,
                        CiphertextBatch exit_batch);
  void ProcessExitBuckets(const std::shared_ptr<RoundCtx>& ctx, NodeMsg msg);

  void Deliver(const std::shared_ptr<RoundCtx>& ctx, Envelope envelope);
  // Ships one hop's fan-out (dest_server, msg) pairs: self-sends
  // short-circuit into our own lane; remote sends group per destination
  // host so each peer gets one kEnvelopeBundle frame per hop.
  void FanOut(const std::shared_ptr<RoundCtx>& ctx,
              std::vector<std::pair<uint32_t, NodeMsg>> sends);
  // Applies the fault plan's byzantine tamper to an outbound envelope
  // when its round is inside a tamper range.
  void ApplyPlanTamper(const std::shared_ptr<RoundCtx>& ctx,
                       Envelope& envelope);
  void AbortRound(const std::shared_ptr<RoundCtx>& ctx, uint32_t gid,
                  std::string reason);
  GroupRuntime* FindHostedGroup(uint32_t gid);
  void Ack(uint32_t peer_id, uint64_t seq);

  const uint32_t server_id_;
  const size_t max_rounds_;
  AtomNode node_;
  TcpPeerMesh mesh_;
  // The only queue that touches node_ (JoinGroup + chain deliveries) and
  // the setup control plane (roster / host-group).
  SerialExecutor node_serial_;

  std::mutex rounds_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::map<uint64_t, Lane*> active_;   // round id -> lane
  std::vector<Lane*> free_lanes_;
  std::set<uint64_t> finished_;        // tombstones: late frames dropped
  std::deque<uint64_t> finished_fifo_; // eviction order for the tombstones

  std::mutex groups_mu_;
  std::map<uint32_t, std::unique_ptr<GroupRuntime>> hosted_;

  // Neighbour gid -> the rewrap table a hop last built for its key, passed
  // to every later hop toward that neighbour while the key is unchanged.
  std::mutex tables_mu_;
  std::map<uint32_t, std::shared_ptr<const FixedBaseTable>> neighbour_tables_;

  std::function<void(Envelope&)> tamper_;
  std::shared_ptr<FaultPlan> fault_plan_;  // set before Start()
};

}  // namespace atom

#endif  // SRC_NET_NODE_PROCESS_H_
