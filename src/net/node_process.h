// NodeProcess: hosts one Atom server inside one OS process and wires it to
// the TCP peer mesh — the deployment shape the paper assumes (one server
// per machine), where LocalBus's in-process delivery becomes real
// encrypted links.
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
//    exactly LocalBus's discipline, so a seeded legacy run replays
//    byte-for-byte across transports.
//
//  * Engine rounds (kBeginRound carrying a WireRoundSpec) execute whole
//    group hops for the groups this process hosts (kHostGroup installs the
//    DKG material): inbound kHopBatch sub-batches assemble per
//    (layer, gid) slot exactly like the RoundEngine's hop DAG, the hop
//    runs GroupRuntime::RunHop with a DRBG key-separated from the round's
//    root by layer*width+gid — the engine's derivation — and the exit
//    phase runs distributed: this host sorts its exit batches
//    (SortTrapExits), ships per-destination buckets (kExitBuckets) to the
//    destination groups' hosts, checks arrivals against the round's trap
//    commitments (CheckExitGroup), and reports to the driver
//    (kExitReport). A seeded engine round therefore produces
//    byte-identical results over the mesh and in process.
//
// Every control message is acked only after it has been applied, which
// gives the driver a cross-link ordering fence. Failures never hang the
// deployment: an unreachable next-hop peer, a malformed frame, a missing
// group runtime, or a throwing handler all surface to the driver as a
// round-tagged kAbort envelope.
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
  // `pool` backs this server's serial lanes (null = the process-wide
  // shared pool); benches hosting many "servers" in one process give each
  // its own pool, mirroring the real one-pool-per-process deployment.
  NodeProcess(uint32_t server_id, Variant variant, KemKeypair identity,
              const Point& driver_pk, size_t max_rounds = 8,
              ThreadPool* pool = nullptr);

  // Forwards to the mesh's WAN emulation knob (benches). Set before
  // Start().
  void set_wire_delay(std::chrono::milliseconds delay);
  // Per-peer WAN matrix entry (overrides set_wire_delay for that peer);
  // benches shape a multi-region topology with these. Set before Start().
  void set_peer_profile(uint32_t peer_id, WanProfile profile);
  // Per-peer frame coalescing for engine-round fan-out (default on): all
  // sub-batches a hop owes one server travel as one kEnvelopeBundle frame
  // through the mesh's sender lane. Off selects the legacy
  // one-frame-per-envelope path — kept selectable so benches can pin
  // before/after rows and seeded results can be compared byte-for-byte.
  void set_coalesce_sends(bool on) { coalesce_ = on; }
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
  // Inbound sub-batches for one hop, assembled per predecessor slot in
  // ascending gid order — the RoundEngine's HopNode, reconstructed from
  // round-tagged wire traffic.
  struct HopAssembly {
    std::vector<uint32_t> preds;
    std::vector<CiphertextBatch> inbound;
    std::vector<bool> got;
    size_t arrived = 0;
  };
  // One destination group's §4.4 inputs: every source group's buckets.
  struct ExitAssembly {
    std::vector<std::vector<Bytes>> traps;
    std::vector<std::vector<Bytes>> inner;
    std::vector<bool> got;
    size_t arrived = 0;
  };
  // Everything one round owns on this server. Created by kBeginRound,
  // dropped on kRoundDone; tasks capture it by shared_ptr so a stale task
  // from an evicted round runs against its own (harmless) state.
  struct RoundCtx {
    uint64_t round_id = 0;
    std::array<uint8_t, 32> root{};
    uint64_t delivered = 0;  // chain-protocol DRBG counter
    std::optional<WireRoundSpec> spec;  // engine rounds only
    std::map<uint64_t, HopAssembly> hops;  // key: layer * width + gid
    std::map<uint32_t, ExitAssembly> exits;  // key: dest gid hosted here
    std::atomic<bool> aborted{false};
  };
  // A serial execution lane. The SerialExecutor outlives the rounds that
  // pass through it (lanes are pooled, not created per round), so lane
  // teardown never blocks a reader thread.
  struct Lane {
    explicit Lane(ThreadPool* pool) : serial(pool) {}
    SerialExecutor serial;
    std::shared_ptr<RoundCtx> ctx;  // guarded by rounds_mu_
  };

  void HandleControl(uint32_t peer_id, LinkFrame frame);
  void HandleEnvelope(Envelope envelope);  // reader thread -> round lane
  void BeginRound(uint32_t peer_id, BeginRoundMsg msg);
  void FinishRound(uint64_t round_id);

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
  // host so each peer gets one multi-envelope frame per hop (or the
  // legacy one-frame-per-envelope path when coalescing is off).
  void FanOut(const std::shared_ptr<RoundCtx>& ctx,
              std::vector<std::pair<uint32_t, NodeMsg>> sends);
  // Applies the fault plan's byzantine tamper to an outbound envelope
  // when its round is inside a tamper range.
  void ApplyPlanTamper(const std::shared_ptr<RoundCtx>& ctx,
                       Envelope& envelope);
  // Routes an engine-round envelope to the server hosting `dest_server`,
  // short-circuiting self-sends back into our own lane.
  void SendToServer(const std::shared_ptr<RoundCtx>& ctx,
                    uint32_t dest_server, NodeMsg msg);
  void AbortRound(const std::shared_ptr<RoundCtx>& ctx, uint32_t gid,
                  std::string reason);
  GroupRuntime* FindHostedGroup(uint32_t gid);
  void Ack(uint32_t peer_id, uint64_t seq);

  const uint32_t server_id_;
  const size_t max_rounds_;
  ThreadPool* const pool_;  // backs the lanes; null = shared pool
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
  bool coalesce_ = true;  // set before Start()
};

}  // namespace atom

#endif  // SRC_NET_NODE_PROCESS_H_
