// TcpPeerMesh: the transport between Atom servers and their driver over
// real sockets — one persistent authenticated encrypted connection per peer
// (src/net/link.h), redialed on failure, with every frame either a routed
// protocol Envelope or a driver control message (src/net/control.h).
//
// The same class serves both sides of a deployment:
//
//  * Role::kDriver — the round driver. Send() buffers entry envelopes;
//    Run() draws a 256-bit run root key from the caller's generator
//    (first, so a seeded driver replays identically), broadcasts it as a
//    round to every server with ack synchronization, flushes the
//    buffered envelopes, and waits until each injected chain has
//    produced a kGroupOutput or kAbort. A peer that dies mid-run,
//    refuses reconnection, or goes silent past the run timeout surfaces
//    as a synthesized kAbort — never a hang.
//
//  * Role::kServer — owned by a NodeProcess (src/net/node_process.h),
//    which registers inbound callbacks. Send() routes immediately:
//    kGroupOutput/kAbort to the driver, everything else to the peer that
//    serves the destination id; a failed send is converted into an abort
//    notice to the driver.
//
// Every outbound frame, control or data, rides its peer's sender lane
// (SendFrame), which the shared ThreadPool drains. Reader threads (one per
// link, plus the accept loop) only move bytes and fire callbacks; all
// protocol work happens on the shared ThreadPool via the receiver's
// SerialExecutor, one serial queue per server.
#ifndef SRC_NET_MESH_H_
#define SRC_NET_MESH_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/net/control.h"
#include "src/net/faults.h"
#include "src/net/link.h"
#include "src/obs/metrics.h"

namespace atom {

// Emulated WAN shape for one peer link. `delay` is the one-way propagation
// latency: every frame arrives that long after it leaves, and the frames
// in flight on a link overlap their delays, as on a real pipe.
// `bytes_per_ms` is link bandwidth (0 = unlimited): a frame of B bytes
// occupies the link for B / bytes_per_ms ms, one frame after another,
// before its propagation starts. A per-peer matrix of these gives Figure
// 10/11-shaped multi-region runs on loopback: intra-region links get a
// small delay, cross-region links a large one.
struct WanProfile {
  std::chrono::milliseconds delay{0};
  size_t bytes_per_ms = 0;
};

// Point-in-time transport counters for one peer link. bytes/frames count
// every frame the sender lane wrote to the socket (control and data
// plane); bundles/envelopes_bundled count only kEnvelopeBundle frames, so
// bundle fill = envelopes_bundled / bundles_sent. queue_depth_peak is the
// most bytes the lane ever held: frames waiting for their due time plus
// the one being written.
struct PeerTransportStats {
  uint64_t bytes_sent = 0;
  uint64_t frames_sent = 0;
  uint64_t bundles_sent = 0;
  uint64_t envelopes_bundled = 0;
  size_t queue_depth_peak = 0;
};

// Snapshot of every peer's transport counters (TcpPeerMesh::Stats()).
struct MeshTransportStats {
  std::map<uint32_t, PeerTransportStats> per_peer;
  size_t send_queue_drops = 0;

  uint64_t TotalBytes() const;
  uint64_t TotalFrames() const;
  uint64_t TotalBundles() const;
  uint64_t TotalEnvelopesBundled() const;
  size_t QueueDepthPeak() const;  // max across peers
  // Mean envelopes per kEnvelopeBundle frame (0 when none were sent).
  double BundleFill() const;
};

// Names the servers a failed fan-out missed, for abort reasons:
// "server 3" or "servers 3, 4".
std::string DescribeServers(std::span<const uint32_t> ids);

class TcpPeerMesh {
 public:
  enum class Role { kDriver, kServer };

  // `identity` is this participant's long-term key; its public half must
  // match what the roster distributes. self_id is kMeshDriverId for the
  // driver and the hosted server's id otherwise.
  TcpPeerMesh(Role role, uint32_t self_id, KemKeypair identity);
  ~TcpPeerMesh();

  // ---- Plumbing shared by both roles.

  // Replaces the peer directory (addresses + long-term keys). Thread-safe;
  // servers receive it from the driver as a kRoster control message.
  // Live links to peers whose roster entry changed (address or key) or
  // disappeared are shut down so the next send redials against the new
  // entry instead of talking to a stale endpoint; links to peers the
  // roster never named (e.g. the driver, known via AddPeerKey) are kept.
  void SetRoster(std::vector<MeshPeer> peers);
  // Registers a key for a peer with no roster entry yet (servers learn
  // the driver's key at construction, before the roster arrives).
  void AddPeerKey(uint32_t peer_id, const Point& pk);

  // Binds a listener (port 0 picks an ephemeral port) — servers must
  // listen; the driver dials everyone and needs none.
  bool Listen(uint16_t port);
  uint16_t listen_port() const;

  // Starts the accept loop (no-op without a listener).
  void Start();
  // Shuts every link and thread down. Idempotent; called by the dtor.
  void Stop();

  // Inbound callbacks, fired on reader threads (receiver must hand work
  // to its SerialExecutor, not block). Server role only.
  void OnEnvelope(std::function<void(Envelope)> fn);
  void OnControl(std::function<void(uint32_t peer_id, LinkFrame frame)> fn);

  // Driver-role sink for inbound envelopes. When set, every kEnvelope
  // frame is handed to it (round-tagged, so overlapping rounds
  // demultiplex) instead of the Run collectors — this is how
  // DistributedRoundDriver (src/net/round_driver.h) takes over delivery.
  // Fired on reader threads; must not block.
  void OnDriverEnvelope(std::function<void(Envelope)> fn);
  // Fired (any role) when a peer's link dies outside Stop(); the
  // pipelined driver uses it to synthesize per-round aborts.
  void OnPeerDown(std::function<void(uint32_t peer_id)> fn);

  // The one outbound path: queues the frame on the peer's sender lane and
  // returns at once, so the caller's next encode + AEAD seal overlaps this
  // frame's socket write. The lane's drain writes frames in call order,
  // each at its due time (see set_peer_profile), reusing the persistent
  // link or (re)dialing from the roster. False when the mesh is stopping
  // or the lane's byte bound refuses the frame (see set_send_queue_bound);
  // the caller converts that to an abort. A failure found later, at the
  // write, is converted here for kEnvelope/kEnvelopeBundle frames: server
  // role reports a round-scoped abort to the driver, driver role delivers
  // a synthesized round-tagged abort to its own envelope sink. round_id and
  // gid scope that conversion; envelope_count feeds the bundle fill
  // counters (1 for a plain kEnvelope).
  bool SendFrame(uint32_t peer_id, LinkMsg type, Bytes body,
                 uint64_t round_id = 0, uint32_t gid = 0,
                 uint32_t envelope_count = 1);

  // Server role, coalesced fan-out: ships every envelope a hop owes one
  // destination server as a single kEnvelopeBundle frame (plain kEnvelope
  // when there is just one) through the sender lane. All envelopes must
  // share to_server and round_id. Same failure conversion as Send():
  // severed links, bound drops and dead peers become round-scoped aborts
  // to the driver instead of hangs.
  void SendEnvelopes(std::vector<Envelope> envelopes);

  // ---- Driver-side setup.

  // Dials every rostered peer and pushes the roster to all of them in one
  // fan-out (every frame queued, then one wait for all the acks).
  bool ConnectAndPushRoster();
  // Ships one group's key material to a server (ack-synchronized).
  bool SendJoinGroup(uint32_t peer_id, uint32_t gid,
                     const NodeGroupKeys& keys);
  // Ships a whole group's DKG output so the receiver hosts that group's
  // engine hops for pipelined rounds (ack-synchronized).
  bool SendHostGroup(uint32_t peer_id, uint32_t gid, const DkgResult& dkg);

  // Driver side: pulls the peer process's frozen metrics registry over
  // the control plane (kMetricsSnapshot request/reply, bounded by the
  // control timeout). nullopt when the peer is unreachable, dead, or a
  // pre-observability build; a request the lane refuses or fails to send
  // returns at once. Merge the replies with the local registry's
  // Snapshot() for the fleet-wide view.
  std::optional<obs::MetricsSnapshot> FetchMetricsSnapshot(uint32_t peer_id);

  // ---- Round-scoped control plane (driver side).

  // Round ids are unique per driver mesh; both the chain Run and the
  // pipelined DistributedRoundDriver draw from this counter so their
  // rounds never collide on the servers' per-round state.
  uint64_t AllocateRoundId();
  // Pins the next allocated id (and the counter continues from it).
  // Scenario harness use: seeded FaultPlans name rounds by id
  // (sever=A-B@2-2), so a deterministic run needs ids 1,2,3… — safe
  // there because every scenario spawns a fresh fleet, which is exactly
  // the stale-lane hazard the random base exists to avoid.
  void set_next_round_id(uint64_t id);
  // One server's share of a round opening: the engine spec it receives
  // (nullptr for chain rounds, which carry none).
  struct BeginRoundTarget {
    uint32_t peer_id = 0;
    const WireRoundSpec* spec = nullptr;
  };
  // Opens a round on every target in one round trip: each server's
  // kBeginRound (root key + optional spec) is queued on its sender lane,
  // then the caller waits once for all the acks. That wait is the fence:
  // key material lands everywhere before any dependent traffic, which
  // reaches a server over other links than ours. Returns the servers that
  // did not ack (unreachable, refused by the lane bound, or silent past
  // the control timeout), in target order; empty when the round is open
  // on every target.
  std::vector<uint32_t> BeginRound(uint64_t round_id,
                                   const std::array<uint8_t, 32>& root_key,
                                   std::span<const BeginRoundTarget> targets);
  // Retires a round on the named peers (or every rostered peer when the
  // span is empty): queues kRoundDone on each sender lane and returns
  // without waiting on the wire. Lane order delivers it after every frame
  // of the round this mesh queued, and before the next kBeginRound, so a
  // server frees the round's lane before it is asked to open another.
  // Best-effort: a dead peer's state dies with it.
  void BroadcastRoundDone(uint64_t round_id,
                          std::span<const uint32_t> peers = {});

  // Server role: reports a local delivery failure upstream so the driver
  // sees an abort instead of a silently dropped chain; round-tagged so a
  // pipelined driver aborts only the affected round.
  void SendAbortToDriver(uint64_t round_id, uint32_t gid,
                         std::string reason);

  // ---- Chain rounds of AtomNode steps (Run/outputs/aborts are
  // driver-role only).

  // Queues a message: the driver buffers entry envelopes until Run; a
  // server routes immediately (see Role::kServer above).
  void Send(Envelope envelope);
  // Delivers the buffered envelopes as one round and waits until each
  // chain resolved; false if any chain aborted during this call.
  bool Run(Rng& rng);
  // Collected kGroupOutput / kAbort messages. Only read while Run is not
  // executing (debug builds assert it).
  const std::vector<NodeMsg>& outputs() const;
  const std::vector<NodeMsg>& aborts() const;
  void ClearOutputs();

  // Collectors can grow outside Run (a server may push an abort
  // spontaneously, e.g. on a malformed frame); these counts are safe to
  // poll at any time, where the vector accessors above are not.
  size_t output_count() const;
  size_t abort_count() const;

  void set_run_timeout(std::chrono::milliseconds timeout);
  void set_control_timeout(std::chrono::milliseconds timeout);
  void set_dial_attempts(int attempts);
  // Backpressure bound for WAN deployments: caps the bytes one peer's
  // sender lane holds, counting frames that wait for their due time and
  // the one being written, so a slow, stalled or long-delay peer cannot
  // pile up memory without limit. One frame is always admitted to an
  // empty lane; past the bound SendFrame fails immediately —
  // drop-to-abort, never block-to-OOM — and the failure surfaces through
  // the existing abort paths, scoped to the affected round. Default
  // 64 MiB per peer.
  void set_send_queue_bound(size_t bytes);
  // Frames dropped by the bound since construction (observability).
  size_t send_queue_drops() const;
  // WAN emulation for benches and tests. At SendFrame each frame to
  // `peer_id` gets a due time: the profile's bandwidth term is serial
  // per link (it starts when the link finishes the frame ahead), the
  // one-way delay is then added in parallel, so frames in flight overlap
  // their delays (see WanProfile). No thread sleeps on a due time: the
  // lane's drain asks the pool for one timed release at the head frame's
  // due time. A uniform WAN is one call per peer with the same profile;
  // a latency/bandwidth matrix gives each peer its own.
  void set_peer_profile(uint32_t peer_id, WanProfile profile);
  // Snapshot of the per-peer transport counters.
  MeshTransportStats Stats() const;
  // Deterministic fault injection (scenario harness): every outbound
  // frame draws its decision at SendFrame, in per-link order. A drop
  // discards the frame, a delay adds to its propagation like the WAN
  // delay, a stall occupies the link before every frame like the
  // bandwidth term, a duplicate is written twice, truncate/corrupt mutate
  // the sealed record so the receiver's AEAD kills the link, and severed
  // links fail round-scoped envelope sends exactly like an unreachable
  // peer. nullptr (the default) disables injection.
  void SetFaultPlan(std::shared_ptr<FaultPlan> plan);

 private:
  struct PeerDirectory {
    std::map<uint32_t, MeshPeer> roster;
    std::map<uint32_t, Point> extra_keys;
  };

  std::optional<Point> LookupPeerKey(uint32_t peer_id) const;
  std::optional<MeshPeer> LookupPeerAddress(uint32_t peer_id) const;

  // Returns a live link to the peer, dialing if needed (serialized by
  // dial_mu_ so concurrent drains don't race duplicate connections).
  std::shared_ptr<SecureLink> EnsureLink(uint32_t peer_id);
  // Registers a link and spawns its reader thread. Keeps an existing live
  // link (the newcomer still gets served by its own reader).
  std::shared_ptr<SecureLink> AdoptLink(std::shared_ptr<SecureLink> link);

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<SecureLink> link);
  void HandleFrame(uint32_t peer_id, LinkFrame frame);
  // Routes one decoded inbound envelope (single frame or bundle member)
  // to the role's sink: driver sink / Run collectors / server callback.
  void DispatchEnvelope(Envelope envelope);
  void OnPeerGone(uint32_t peer_id);

  // Writes every due frame at the head of a peer's sender lane, in order,
  // then goes idle or asks the pool for one timed release at the head
  // frame's due time. One drain task per lane at a time (per-peer order).
  void DrainSenderLane(uint32_t peer_id);
  // Converts a failed socket write into the role's abort path.
  void ConvertSendFailure(uint32_t peer_id, uint64_t round_id, uint32_t gid);

  // Appends a synthesized abort (driver role) and wakes Run. gid 0 when
  // the failing chain is unknown.
  void SynthesizeAbort(uint32_t gid, std::string reason);

  // One ack-synchronized control frame: its destination, the sequence
  // number its body carries (echoed back in the kAck), and the body.
  struct ControlFrame {
    uint32_t peer_id = 0;
    LinkMsg type = LinkMsg::kAck;
    uint64_t seq = 0;
    Bytes body;
  };
  // The one ack-synchronized send path: queues every frame on its peer's
  // sender lane, then waits once, bounded by the control timeout, until
  // each frame is acked or known lost. Returns the peers whose frame was
  // not acked, in input order.
  std::vector<uint32_t> SendControlAwaitAcks(std::vector<ControlFrame> frames);
  uint64_t NextSeq();

  void AssertNotRunning() const;

  const Role role_;
  const uint32_t self_id_;
  const KemKeypair identity_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  PeerDirectory peers_;
  std::map<uint32_t, std::shared_ptr<SecureLink>> links_;
  // Every link a reader thread was ever spawned for — including ones
  // demoted by AdoptLink or replaced after a redial, which are no longer
  // in links_. Stop() must Shutdown() all of them or joining their
  // readers (blocked in Recv on a half-open socket) would hang forever.
  std::vector<std::shared_ptr<SecureLink>> adopted_;
  std::vector<std::thread> threads_;  // accept loop + link readers
  std::vector<Envelope> buffered_;    // driver: entry envelopes until Run
  std::vector<NodeMsg> outputs_;
  std::vector<NodeMsg> aborts_;
  // Fate of each control frame a SendControlAwaitAcks call is waiting on.
  // The waiter inserts its seqs before sending and erases them when it
  // returns, so acks cost no memory once consumed and late acks are
  // ignored.
  enum class AckState { kPending, kAcked, kLost };
  std::map<uint64_t, AckState> awaited_acks_;
  uint64_t next_seq_ = 1;
  uint64_t next_round_id_ = 1;
  bool running_ = false;   // a driver Run is executing
  bool stopping_ = false;
  size_t run_outputs_baseline_ = 0;
  size_t run_aborts_baseline_ = 0;

  // Callbacks are set and INVOKED under cb_mu_ (never nested with mu_):
  // clearing a callback therefore blocks until any in-flight invocation
  // returns, so an owner may unregister in its destructor without racing
  // a reader thread mid-call.
  mutable std::mutex cb_mu_;
  std::function<void(Envelope)> on_envelope_;
  std::function<void(uint32_t, LinkFrame)> on_control_;
  std::function<void(Envelope)> on_driver_envelope_;
  std::function<void(uint32_t)> on_peer_down_;

  std::mutex dial_mu_;
  TcpListener listener_;
  bool accepting_ = false;

  std::chrono::milliseconds run_timeout_{std::chrono::seconds(120)};
  std::chrono::milliseconds control_timeout_{std::chrono::seconds(20)};
  std::shared_ptr<FaultPlan> fault_plan_;  // guarded by mu_
  int dial_attempts_ = 5;
  size_t send_queue_bound_ = size_t{1} << 26;  // 64 MiB per peer

  using Clock = std::chrono::steady_clock;
  // One outbound frame parked on a sender lane. round_id/gid scope the
  // abort synthesized if an envelope frame's write fails; a control frame
  // with a nonzero ack_seq reports the failure to its SendControlAwaitAcks
  // waiter instead. fault and due are set at enqueue.
  struct QueuedFrame {
    LinkMsg type = LinkMsg::kEnvelope;
    Bytes body;
    uint64_t round_id = 0;
    uint32_t gid = 0;
    uint32_t envelopes = 1;
    uint64_t ack_seq = 0;
    FaultDecision fault;
    Clock::time_point due;
  };
  // Parks a frame on the peer's sender lane with its due time, starting a
  // drain if none runs. False when the mesh is stopping or the lane's
  // byte bound refuses the frame.
  bool EnqueueFrame(uint32_t peer_id, QueuedFrame frame);
  // The lane drain's socket write of one frame, with its fault applied.
  bool WriteFrame(uint32_t peer_id, const QueuedFrame& frame);
  // Records an awaited control frame's fate and wakes its waiter (no-op
  // for a seq nobody waits on). An ack always wins; kLost only settles a
  // pending frame.
  void ResolveAck(uint64_t seq, AckState state);
  // Cached registry handles for one peer link's transport counters — the
  // single source of truth behind Stats(), shared with the fleet-wide
  // metrics export. Series carry {mesh="<self>#<instance>",peer="<id>"}
  // labels so the many meshes a bench process hosts stay separable.
  struct LaneCounters {
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* frames_sent = nullptr;
    obs::Counter* bundles_sent = nullptr;
    obs::Counter* envelopes_bundled = nullptr;
    obs::Gauge* queue_depth_peak = nullptr;  // max bytes queued on the lane
  };

  // Per-peer sender lane (guarded by mu_). queued_bytes counts every
  // frame not yet written, including the one being written, so a giant
  // bundle consumes exactly its size of the bound — it cannot hide behind
  // a frame count.
  struct SenderLane {
    std::deque<QueuedFrame> queue;  // due times never decrease
    size_t queued_bytes = 0;
    Clock::time_point busy_until;  // end of the link's serial occupancy
    bool draining = false;  // a drain task is ready, timed or running
    LaneCounters obs;
  };
  // The peer's lane, its registry handles resolved on first use.
  // Requires mu_ held.
  SenderLane& LaneFor(uint32_t peer_id);

  std::map<uint32_t, SenderLane> lanes_;     // guarded by mu_
  std::map<uint32_t, WanProfile> wan_;       // guarded by mu_
  // Fulfilled kMetricsSnapshot replies by request seq (driver role,
  // guarded by mu_; FetchMetricsSnapshot extracts its own entry).
  std::map<uint64_t, obs::MetricsSnapshot> metrics_replies_;
  std::string obs_label_;                    // mesh="<self>#<instance>"
  obs::Counter* drops_ = nullptr;            // send-queue bound drops
};

}  // namespace atom

#endif  // SRC_NET_MESH_H_
