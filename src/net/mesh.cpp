#include "src/net/mesh.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "src/core/wire.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace atom {
namespace {

NodeMsg TransportAbort(uint32_t gid, std::string reason) {
  NodeMsg msg;
  msg.type = NodeMsg::Type::kAbort;
  msg.gid = gid;
  msg.abort_reason = std::move(reason);
  return msg;
}

// Sender-lane drains run above every engine weight: a sealed frame that
// waits behind queued mixing work delays the whole downstream group,
// while the mixing work only delays this server.
constexpr int64_t kTransportDrainWeight = int64_t{1} << 40;

}  // namespace

std::string DescribeServers(std::span<const uint32_t> ids) {
  std::string out = ids.size() == 1 ? "server " : "servers ";
  for (size_t i = 0; i < ids.size(); i++) {
    if (i > 0) {
      out += ", ";
    }
    out += std::to_string(ids[i]);
  }
  return out;
}

uint64_t MeshTransportStats::TotalBytes() const {
  uint64_t n = 0;
  for (const auto& [id, s] : per_peer) {
    n += s.bytes_sent;
  }
  return n;
}

uint64_t MeshTransportStats::TotalFrames() const {
  uint64_t n = 0;
  for (const auto& [id, s] : per_peer) {
    n += s.frames_sent;
  }
  return n;
}

uint64_t MeshTransportStats::TotalBundles() const {
  uint64_t n = 0;
  for (const auto& [id, s] : per_peer) {
    n += s.bundles_sent;
  }
  return n;
}

uint64_t MeshTransportStats::TotalEnvelopesBundled() const {
  uint64_t n = 0;
  for (const auto& [id, s] : per_peer) {
    n += s.envelopes_bundled;
  }
  return n;
}

size_t MeshTransportStats::QueueDepthPeak() const {
  size_t n = 0;
  for (const auto& [id, s] : per_peer) {
    n = std::max(n, s.queue_depth_peak);
  }
  return n;
}

double MeshTransportStats::BundleFill() const {
  uint64_t bundles = TotalBundles();
  if (bundles == 0) {
    return 0.0;
  }
  return static_cast<double>(TotalEnvelopesBundled()) /
         static_cast<double>(bundles);
}

TcpPeerMesh::TcpPeerMesh(Role role, uint32_t self_id, KemKeypair identity)
    : role_(role), self_id_(self_id), identity_(std::move(identity)) {
  // Per-instance series label: benches host many meshes per process (and
  // twin fleets reuse self ids), so self_id alone would fold distinct
  // meshes into one series. A process-wide ordinal keeps them apart.
  static std::atomic<uint64_t> next_instance{0};
  obs_label_ = std::to_string(self_id_) + "#" +
               std::to_string(next_instance.fetch_add(
                   1, std::memory_order_relaxed));
  drops_ = obs::Registry::Global().GetCounter(
      "atom_mesh_send_queue_drops_total{mesh=\"" + obs_label_ + "\"}");
  if (role_ == Role::kDriver) {
    // Round ids must not collide with a previous driver incarnation's
    // rounds still resident on long-lived servers (stale lanes and
    // tombstones would silently swallow a restarted driver's kBeginRound
    // as a duplicate). A random 64-bit base makes cross-incarnation
    // collisions negligible; ids stay unique within one mesh by the
    // counter. Zero is skipped: it marks untagged legacy envelopes.
    Rng rng = Rng::FromOsEntropy();
    next_round_id_ = rng.NextU64() | 1;
  }
}

TcpPeerMesh::~TcpPeerMesh() { Stop(); }

void TcpPeerMesh::SetRoster(std::vector<MeshPeer> peers) {
  // Links whose roster entry changed (or vanished) are shut down so the
  // next send redials the NEW entry — keeping them would pin traffic to a
  // stale address/key after a repair. Shutdown happens outside mu_ (the
  // dying link's reader thread takes mu_ to deregister itself).
  std::vector<std::shared_ptr<SecureLink>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint32_t, MeshPeer> old_roster = std::move(peers_.roster);
    peers_.roster.clear();
    for (MeshPeer& peer : peers) {
      uint32_t id = peer.server_id;
      peers_.roster[id] = std::move(peer);
    }
    for (const auto& [id, link] : links_) {
      auto old_it = old_roster.find(id);
      if (old_it == old_roster.end()) {
        continue;  // never rostered (e.g. the driver): keep
      }
      auto new_it = peers_.roster.find(id);
      if (new_it == peers_.roster.end() ||
          new_it->second.host != old_it->second.host ||
          new_it->second.port != old_it->second.port ||
          new_it->second.pk.Encode() != old_it->second.pk.Encode()) {
        dropped.push_back(link);
      }
    }
  }
  for (auto& link : dropped) {
    link->Shutdown();
  }
}

void TcpPeerMesh::AddPeerKey(uint32_t peer_id, const Point& pk) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.extra_keys[peer_id] = pk;
}

std::optional<Point> TcpPeerMesh::LookupPeerKey(uint32_t peer_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.roster.find(peer_id);
  if (it != peers_.roster.end()) {
    return it->second.pk;
  }
  auto extra = peers_.extra_keys.find(peer_id);
  if (extra != peers_.extra_keys.end()) {
    return extra->second;
  }
  return std::nullopt;
}

std::optional<MeshPeer> TcpPeerMesh::LookupPeerAddress(
    uint32_t peer_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.roster.find(peer_id);
  if (it == peers_.roster.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool TcpPeerMesh::Listen(uint16_t port) {
  auto listener = TcpListener::Bind(port);
  if (!listener) {
    return false;
  }
  listener_ = std::move(*listener);
  return true;
}

uint16_t TcpPeerMesh::listen_port() const { return listener_.port(); }

void TcpPeerMesh::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!listener_.valid() || accepting_ || stopping_) {
    return;
  }
  accepting_ = true;
  threads_.emplace_back([this] { AcceptLoop(); });
}

void TcpPeerMesh::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    cv_.notify_all();  // ack waiters give up: their lanes are abandoned
  }
  listener_.Shutdown();
  std::vector<std::shared_ptr<SecureLink>> links;
  {
    std::lock_guard<std::mutex> lock(mu_);
    links = adopted_;
  }
  for (auto& link : links) {
    link->Shutdown();
  }
  {
    // Wait for every sender-lane drain to retire before tearing links
    // down: a drain still running past this point would touch freed mesh
    // state. The links are already shut, so in-flight writes fail fast,
    // and a drain observing stopping_ abandons its queue immediately. A
    // timed drain retires at its head frame's due time, so this waits at
    // most the largest pending delay.
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      for (const auto& [id, lane] : lanes_) {
        if (lane.draining) {
          return false;
        }
      }
      return true;
    });
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    links_.clear();
    adopted_.clear();
  }
  listener_.Close();
}

void TcpPeerMesh::OnEnvelope(std::function<void(Envelope)> fn) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  on_envelope_ = std::move(fn);
}

void TcpPeerMesh::OnControl(
    std::function<void(uint32_t, LinkFrame)> fn) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  on_control_ = std::move(fn);
}

void TcpPeerMesh::OnDriverEnvelope(std::function<void(Envelope)> fn) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  on_driver_envelope_ = std::move(fn);
}

void TcpPeerMesh::OnPeerDown(std::function<void(uint32_t)> fn) {
  std::lock_guard<std::mutex> lock(cb_mu_);
  on_peer_down_ = std::move(fn);
}

std::shared_ptr<SecureLink> TcpPeerMesh::AdoptLink(
    std::shared_ptr<SecureLink> link) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    link->Shutdown();
    return nullptr;
  }
  // Links adopted by a mesh always carry server-range ids: dialed links
  // get ours, accepted links passed the roster lookup (which rejects ids
  // past the u32 server range).
  uint32_t peer = static_cast<uint32_t>(link->peer_id());
  auto it = links_.find(peer);
  std::shared_ptr<SecureLink> chosen = link;
  if (it != links_.end() && it->second->alive()) {
    // Keep the established link for outbound traffic; the newcomer is
    // still read (its dialer may send on it).
    chosen = it->second;
  } else {
    links_[peer] = link;
  }
  adopted_.push_back(link);
  threads_.emplace_back([this, link] { ReaderLoop(link); });
  return chosen;
}

std::shared_ptr<SecureLink> TcpPeerMesh::EnsureLink(uint32_t peer_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = links_.find(peer_id);
    if (it != links_.end() && it->second->alive()) {
      return it->second;
    }
    if (stopping_) {
      return nullptr;
    }
  }
  // One dialer at a time: concurrent senders to a dead peer would race
  // duplicate connections and duplicate failure aborts.
  std::lock_guard<std::mutex> dial_lock(dial_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = links_.find(peer_id);
    if (it != links_.end() && it->second->alive()) {
      return it->second;
    }
  }
  auto peer = LookupPeerAddress(peer_id);
  if (!peer) {
    return nullptr;
  }
  int attempts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempts = dial_attempts_;
  }
  for (int attempt = 0; attempt < attempts; attempt++) {
    if (attempt > 0) {
      // Redial backoff, slept on the lane's drain task: the one sleep left
      // in the mesh, until dialing moves onto a non-blocking event loop.
      std::this_thread::sleep_for(std::chrono::milliseconds(40 * attempt));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return nullptr;
      }
    }
    auto socket = TcpSocket::Dial(peer->host, peer->port);
    if (!socket) {
      continue;
    }
    Rng rng = Rng::FromOsEntropy();
    auto link = SecureLink::Dial(std::move(*socket), self_id_, identity_,
                                 peer_id, peer->pk, rng);
    if (link == nullptr) {
      continue;
    }
    return AdoptLink(std::shared_ptr<SecureLink>(std::move(link)));
  }
  return nullptr;
}

bool TcpPeerMesh::SendFrame(uint32_t peer_id, LinkMsg type, Bytes body,
                            uint64_t round_id, uint32_t gid,
                            uint32_t envelope_count) {
  return EnqueueFrame(peer_id, QueuedFrame{type, std::move(body), round_id,
                                           gid, envelope_count});
}

bool TcpPeerMesh::EnqueueFrame(uint32_t peer_id, QueuedFrame frame) {
  const size_t cost = frame.body.size() + 1;  // + the LinkMsg tag byte
  const Clock::time_point now = Clock::now();
  Clock::time_point due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return false;
    }
    SenderLane& lane = LaneFor(peer_id);
    // Byte-accounted admission: a giant bundle consumes exactly its size
    // of the budget, and frames waiting for their due time count. One
    // frame is always admitted to an empty lane — drop-to-abort past the
    // bound, never block.
    if (lane.queued_bytes > 0 && lane.queued_bytes + cost > send_queue_bound_) {
      drops_->Add(1);
      return false;
    }
    // The due time. Serial per link: the straggler stall and the bandwidth
    // term occupy the link one frame after another. In parallel: the WAN
    // propagation delay and the fault plan's delay, which frames in flight
    // overlap.
    std::chrono::milliseconds serial{0};
    std::chrono::milliseconds propagation{0};
    if (fault_plan_ != nullptr) {
      if (fault_plan_->stall().count() > 0) {
        fault_plan_->CountStalled();
        serial += fault_plan_->stall();
      }
      frame.fault =
          fault_plan_->NextDecision(FaultPlan::StreamKey(self_id_, peer_id));
      if (frame.fault.action == FaultAction::kDelay) {
        propagation += frame.fault.delay;
      }
    }
    auto wan = wan_.find(peer_id);
    if (wan != wan_.end()) {
      propagation += wan->second.delay;
      if (wan->second.bytes_per_ms > 0) {
        serial += std::chrono::milliseconds(cost / wan->second.bytes_per_ms);
      }
    }
    lane.busy_until = std::max(lane.busy_until, now) + serial;
    if (frame.fault.action == FaultAction::kDrop) {
      // Silent loss past the NIC: the caller believes the frame left. The
      // failure surfaces downstream (missed ack -> control timeout,
      // missing sub-batch -> round timeout), which is the
      // abort-or-complete path the scenarios assert.
      return true;
    }
    frame.due = lane.busy_until + propagation;
    if (!lane.queue.empty()) {
      frame.due = std::max(frame.due, lane.queue.back().due);  // FIFO
    }
    due = frame.due;
    lane.queue.push_back(std::move(frame));
    lane.queued_bytes += cost;
    lane.obs.queue_depth_peak->UpdateMax(
        static_cast<int64_t>(lane.queued_bytes));
    if (lane.draining) {
      return true;  // the running or timed drain will pick this frame up
    }
    lane.draining = true;
  }
  // A frame with no delay is due already and its drain is ready at once.
  ThreadPool::Shared().Submit([this, peer_id] { DrainSenderLane(peer_id); },
                              kTransportDrainWeight, due);
  return true;
}

void TcpPeerMesh::DrainSenderLane(uint32_t peer_id) {
  for (;;) {
    QueuedFrame frame;
    Clock::time_point release{};
    {
      std::lock_guard<std::mutex> lock(mu_);
      SenderLane& lane = lanes_[peer_id];
      if (lane.queue.empty() || stopping_) {
        // Queued frames are abandoned on Stop: the links are dying anyway
        // and Stop() waits on this flag before tearing them down.
        lane.draining = false;
        cv_.notify_all();
        return;
      }
      if (lane.queue.front().due > Clock::now()) {
        release = lane.queue.front().due;  // the lane stays draining
      } else {
        frame = std::move(lane.queue.front());
        lane.queue.pop_front();
      }
    }
    if (release != Clock::time_point{}) {
      ThreadPool::Shared().Submit(
          [this, peer_id] { DrainSenderLane(peer_id); },
          kTransportDrainWeight, release);
      return;
    }
    const bool sent = WriteFrame(peer_id, frame);
    if (!sent) {
      // Converted while the lane is still draining: once draining clears,
      // Stop() may tear the mesh down. A control frame's waiter names the
      // peer itself; a lost kRoundDone, ack or metrics reply needs
      // nothing, since a peer that cannot be reached keeps no round state
      // worth retiring and waits on nothing from us.
      if (frame.ack_seq != 0) {
        ResolveAck(frame.ack_seq, AckState::kLost);
      } else if (frame.type == LinkMsg::kEnvelope ||
                 frame.type == LinkMsg::kEnvelopeBundle) {
        ConvertSendFailure(peer_id, frame.round_id, frame.gid);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    SenderLane& lane = LaneFor(peer_id);
    lane.queued_bytes -= frame.body.size() + 1;
    if (sent) {
      lane.obs.bytes_sent->Add(frame.body.size() + 1);
      lane.obs.frames_sent->Add(1);
      if (frame.type == LinkMsg::kEnvelopeBundle) {
        lane.obs.bundles_sent->Add(1);
        lane.obs.envelopes_bundled->Add(frame.envelopes);
      }
    }
  }
}

bool TcpPeerMesh::WriteFrame(uint32_t peer_id, const QueuedFrame& frame) {
  obs::TraceSpan span("transport_lane", "net", frame.round_id, "peer",
                      peer_id, "bytes", frame.body.size() + 1);
  auto link = EnsureLink(peer_id);
  if (link == nullptr) {
    return false;
  }
  const Bytes packed = PackLinkFrame(frame.type, BytesView(frame.body));
  const FaultDecision& fault = frame.fault;
  if (fault.action == FaultAction::kTruncate ||
      fault.action == FaultAction::kCorrupt) {
    // Seal, then damage the record: the receiver's AEAD rejects it and
    // kills the link — on-the-wire corruption, not a protocol message.
    return link->SendMutated(BytesView(packed), [&fault](Bytes& record) {
      FaultPlan::Mutate(fault, record);
    });
  }
  if (link->Send(BytesView(packed))) {
    if (fault.action == FaultAction::kDuplicate) {
      link->Send(BytesView(packed));  // both genuinely sealed
    }
    return true;
  }
  // The persistent link died under us (peer restarted / unplugged):
  // reconnect-on-failure means one redial before giving up.
  link = EnsureLink(peer_id);
  return link != nullptr && link->Send(BytesView(packed));
}

TcpPeerMesh::SenderLane& TcpPeerMesh::LaneFor(uint32_t peer_id) {
  SenderLane& lane = lanes_[peer_id];
  if (lane.obs.bytes_sent == nullptr) {
    obs::Registry& reg = obs::Registry::Global();
    const std::string labels = "{mesh=\"" + obs_label_ + "\",peer=\"" +
                               std::to_string(peer_id) + "\"}";
    lane.obs.bytes_sent = reg.GetCounter("atom_mesh_bytes_sent_total" +
                                         labels);
    lane.obs.frames_sent = reg.GetCounter("atom_mesh_frames_sent_total" +
                                          labels);
    lane.obs.bundles_sent = reg.GetCounter("atom_mesh_bundles_sent_total" +
                                           labels);
    lane.obs.envelopes_bundled =
        reg.GetCounter("atom_mesh_envelopes_bundled_total" + labels);
    lane.obs.queue_depth_peak =
        reg.GetGauge("atom_mesh_send_queue_depth_peak_bytes" + labels);
  }
  return lane;
}

void TcpPeerMesh::ConvertSendFailure(uint32_t peer_id, uint64_t round_id,
                                     uint32_t gid) {
  std::string reason = "transport: server " + std::to_string(self_id_) +
                       " could not reach server " + std::to_string(peer_id);
  if (role_ == Role::kServer) {
    if (peer_id != kMeshDriverId) {
      SendAbortToDriver(round_id, gid, std::move(reason));
    }
    return;
  }
  // Driver role: the failed frame was this driver's own outbound traffic.
  // Deliver a synthesized round-tagged abort to the local sink, exactly
  // as if the unreachable server had reported the failure itself.
  DispatchEnvelope(Envelope{kMeshDriverId,
                            TransportAbort(gid, std::move(reason)),
                            round_id});
}

void TcpPeerMesh::SendEnvelopes(std::vector<Envelope> envelopes) {
  ATOM_CHECK_MSG(role_ == Role::kServer,
                 "SendEnvelopes is the server-role fan-out path");
  if (envelopes.empty()) {
    return;
  }
  const uint32_t dest = envelopes[0].to_server;
  const uint64_t round_id = envelopes[0].round_id;
  const uint32_t gid = envelopes[0].msg.gid;
  for (const Envelope& envelope : envelopes) {
    ATOM_CHECK_MSG(envelope.to_server == dest &&
                       envelope.round_id == round_id,
                   "a bundle holds one destination and one round");
  }
  std::shared_ptr<FaultPlan> plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan = fault_plan_;
  }
  if (plan != nullptr && plan->LinkSevered(round_id, self_id_, dest)) {
    plan->CountSevered();
  } else {
    Bytes body = envelopes.size() == 1
                     ? EncodeEnvelope(envelopes[0])
                     : EncodeEnvelopeBundle(envelopes);
    LinkMsg type = envelopes.size() == 1 ? LinkMsg::kEnvelope
                                         : LinkMsg::kEnvelopeBundle;
    if (SendFrame(dest, type, std::move(body), round_id, gid,
                  static_cast<uint32_t>(envelopes.size()))) {
      return;
    }
  }
  SendAbortToDriver(round_id, gid,
                    "transport: server " + std::to_string(self_id_) +
                        " could not reach server " + std::to_string(dest));
}

void TcpPeerMesh::AcceptLoop() {
  for (;;) {
    auto socket = listener_.Accept();
    if (!socket) {
      return;  // listener shut down
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
    }
    Rng rng = Rng::FromOsEntropy();
    auto link = SecureLink::Accept(
        std::move(*socket), self_id_, identity_,
        [this](uint64_t id) -> std::optional<Point> {
          if (id > 0xffffffffULL) {
            return std::nullopt;  // client-range ids never dial a mesh
          }
          return LookupPeerKey(static_cast<uint32_t>(id));
        },
        rng);
    if (link != nullptr) {
      AdoptLink(std::shared_ptr<SecureLink>(std::move(link)));
    }
  }
}

void TcpPeerMesh::ReaderLoop(std::shared_ptr<SecureLink> link) {
  for (;;) {
    auto payload = link->Recv();
    if (!payload) {
      break;
    }
    auto frame = UnpackLinkFrame(BytesView(*payload));
    if (!frame) {
      link->Shutdown();
      break;
    }
    HandleFrame(static_cast<uint32_t>(link->peer_id()), std::move(*frame));
  }
  OnPeerGone(static_cast<uint32_t>(link->peer_id()));
  // Drop the registered entry if it is this dead link, so the next send
  // redials instead of hitting a corpse.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = links_.find(static_cast<uint32_t>(link->peer_id()));
  if (it != links_.end() && it->second.get() == link.get()) {
    links_.erase(it);
  }
}

void TcpPeerMesh::HandleFrame(uint32_t peer_id, LinkFrame frame) {
  if (frame.type == LinkMsg::kAck) {
    if (role_ != Role::kDriver) {
      return;
    }
    auto seq = DecodeAck(BytesView(frame.body));
    if (seq) {
      ResolveAck(*seq, AckState::kAcked);
    }
    return;
  }
  if (frame.type == LinkMsg::kMetricsSnapshot && role_ == Role::kDriver) {
    // A server's telemetry reply, which acks its request (requests only
    // travel driver -> server); a reply past its waiter is dropped.
    auto reply = DecodeMetricsReply(BytesView(frame.body));
    if (reply) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = awaited_acks_.find(reply->seq);
      if (it != awaited_acks_.end() && it->second == AckState::kPending) {
        metrics_replies_[reply->seq] = std::move(reply->snapshot);
        it->second = AckState::kAcked;
        cv_.notify_all();
      }
    }
    return;
  }
  if (frame.type == LinkMsg::kEnvelope ||
      frame.type == LinkMsg::kEnvelopeBundle) {
    auto malformed = [&] {
      if (role_ == Role::kDriver) {
        SynthesizeAbort(0, "transport: malformed envelope from server " +
                               std::to_string(peer_id));
      } else {
        SendAbortToDriver(0, 0,
                          "transport: malformed envelope received by "
                          "server " +
                              std::to_string(self_id_));
      }
    };
    if (frame.type == LinkMsg::kEnvelope) {
      auto envelope = DecodeEnvelope(BytesView(frame.body));
      if (!envelope) {
        malformed();
        return;
      }
      DispatchEnvelope(std::move(*envelope));
      return;
    }
    // A bundle demultiplexes back into one delivery per envelope, in the
    // sender's fan-out order.
    auto envelopes = DecodeEnvelopeBundle(BytesView(frame.body));
    if (!envelopes) {
      malformed();
      return;
    }
    for (Envelope& envelope : *envelopes) {
      DispatchEnvelope(std::move(envelope));
    }
    return;
  }
  // Control plane (roster / join-group / host-group / begin-round):
  // driver-originated; servers apply via their NodeProcess.
  if (role_ == Role::kServer) {
    std::lock_guard<std::mutex> lock(cb_mu_);
    if (on_control_) {
      on_control_(peer_id, std::move(frame));
    }
  }
}

void TcpPeerMesh::DispatchEnvelope(Envelope envelope) {
  if (role_ == Role::kDriver) {
    {
      // Invoked under cb_mu_ so unregistering (driver teardown) cannot
      // race an in-flight call into a dying object.
      std::lock_guard<std::mutex> lock(cb_mu_);
      if (on_driver_envelope_) {
        // A pipelined driver demultiplexes per round; the Run
        // collectors are bypassed entirely.
        on_driver_envelope_(std::move(envelope));
        return;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (envelope.msg.type == NodeMsg::Type::kGroupOutput) {
      outputs_.push_back(std::move(envelope.msg));
    } else if (envelope.msg.type == NodeMsg::Type::kAbort) {
      aborts_.push_back(std::move(envelope.msg));
    }
    cv_.notify_all();
    return;
  }
  std::lock_guard<std::mutex> lock(cb_mu_);
  if (on_envelope_) {
    on_envelope_(std::move(envelope));
  }
}

void TcpPeerMesh::OnPeerGone(uint32_t peer_id) {
  bool abort_run = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    abort_run = role_ == Role::kDriver && running_;
  }
  if (abort_run) {
    SynthesizeAbort(0, "transport: server " + std::to_string(peer_id) +
                           " disconnected mid-run");
  }
  std::lock_guard<std::mutex> lock(cb_mu_);
  if (on_peer_down_) {
    on_peer_down_(peer_id);
  }
}

void TcpPeerMesh::SynthesizeAbort(uint32_t gid, std::string reason) {
  std::lock_guard<std::mutex> lock(mu_);
  aborts_.push_back(TransportAbort(gid, std::move(reason)));
  cv_.notify_all();
}

void TcpPeerMesh::SendAbortToDriver(uint64_t round_id, uint32_t gid,
                                    std::string reason) {
  Envelope envelope{self_id_, TransportAbort(gid, std::move(reason)),
                    round_id};
  SendFrame(kMeshDriverId, LinkMsg::kEnvelope, EncodeEnvelope(envelope),
            round_id, gid);
}

uint64_t TcpPeerMesh::NextSeq() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_++;
}

void TcpPeerMesh::ResolveAck(uint64_t seq, AckState state) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = awaited_acks_.find(seq);
  if (it == awaited_acks_.end() ||
      (state == AckState::kLost && it->second != AckState::kPending)) {
    return;
  }
  it->second = state;
  cv_.notify_all();
}

std::vector<uint32_t> TcpPeerMesh::SendControlAwaitAcks(
    std::vector<ControlFrame> frames) {
  std::chrono::milliseconds timeout;
  {
    // Registered before any frame leaves, so an instant ack finds its
    // entry.
    std::lock_guard<std::mutex> lock(mu_);
    timeout = control_timeout_;
    for (const ControlFrame& frame : frames) {
      awaited_acks_[frame.seq] = AckState::kPending;
    }
  }
  for (ControlFrame& frame : frames) {
    QueuedFrame queued;
    queued.type = frame.type;
    queued.body = std::move(frame.body);
    queued.ack_seq = frame.seq;
    if (!EnqueueFrame(frame.peer_id, std::move(queued))) {
      ResolveAck(frame.seq, AckState::kLost);
    }
  }
  std::vector<uint32_t> missing;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] {
    return stopping_ ||
           std::none_of(frames.begin(), frames.end(),
                        [&](const ControlFrame& frame) {
                          return awaited_acks_.at(frame.seq) ==
                                 AckState::kPending;
                        });
  });
  for (const ControlFrame& frame : frames) {
    if (awaited_acks_.extract(frame.seq).mapped() != AckState::kAcked) {
      missing.push_back(frame.peer_id);
    }
  }
  return missing;
}

bool TcpPeerMesh::ConnectAndPushRoster() {
  ATOM_CHECK_MSG(role_ == Role::kDriver,
                 "only the driver distributes the roster");
  std::vector<MeshPeer> roster;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, peer] : peers_.roster) {
      roster.push_back(peer);
    }
  }
  std::vector<ControlFrame> frames;
  for (const MeshPeer& peer : roster) {
    const uint64_t seq = NextSeq();
    frames.push_back(ControlFrame{peer.server_id, LinkMsg::kRoster, seq,
                                  EncodeRoster(seq, roster)});
  }
  return SendControlAwaitAcks(std::move(frames)).empty();
}

bool TcpPeerMesh::SendJoinGroup(uint32_t peer_id, uint32_t gid,
                                const NodeGroupKeys& keys) {
  const uint64_t seq = NextSeq();
  return SendControlAwaitAcks({ControlFrame{peer_id, LinkMsg::kJoinGroup, seq,
                                            EncodeJoinGroup(seq, gid, keys)}})
      .empty();
}

bool TcpPeerMesh::SendHostGroup(uint32_t peer_id, uint32_t gid,
                                const DkgResult& dkg) {
  const uint64_t seq = NextSeq();
  return SendControlAwaitAcks({ControlFrame{peer_id, LinkMsg::kHostGroup, seq,
                                            EncodeHostGroup(seq, gid, dkg)}})
      .empty();
}

std::optional<obs::MetricsSnapshot> TcpPeerMesh::FetchMetricsSnapshot(
    uint32_t peer_id) {
  ATOM_CHECK_MSG(role_ == Role::kDriver,
                 "metrics snapshots are pulled by the driver");
  const uint64_t seq = NextSeq();
  if (!SendControlAwaitAcks({ControlFrame{peer_id, LinkMsg::kMetricsSnapshot,
                                          seq, EncodeMetricsRequest(seq)}})
           .empty()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(metrics_replies_.extract(seq).mapped());
}

uint64_t TcpPeerMesh::AllocateRoundId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_round_id_++;
}

void TcpPeerMesh::set_next_round_id(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  next_round_id_ = id;
}

std::vector<uint32_t> TcpPeerMesh::BeginRound(
    uint64_t round_id, const std::array<uint8_t, 32>& root_key,
    std::span<const BeginRoundTarget> targets) {
  std::vector<ControlFrame> frames;
  frames.reserve(targets.size());
  for (const BeginRoundTarget& target : targets) {
    const uint64_t seq = NextSeq();
    frames.push_back(
        ControlFrame{target.peer_id, LinkMsg::kBeginRound, seq,
                     EncodeBeginRound(seq, round_id, root_key, target.spec)});
  }
  return SendControlAwaitAcks(std::move(frames));
}

void TcpPeerMesh::BroadcastRoundDone(uint64_t round_id,
                                     std::span<const uint32_t> peers) {
  std::vector<uint32_t> targets(peers.begin(), peers.end());
  if (targets.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, peer] : peers_.roster) {
      targets.push_back(id);
    }
  }
  const Bytes body = EncodeRoundDone(round_id);
  for (uint32_t id : targets) {
    // Best-effort: a refused enqueue or a failed send is dropped, since an
    // unreachable peer's round state dies with the peer.
    EnqueueFrame(id, QueuedFrame{LinkMsg::kRoundDone, body, round_id});
  }
}

void TcpPeerMesh::Send(Envelope envelope) {
  if (role_ == Role::kDriver) {
    // Buffered until Run: the run root key must precede the traffic it
    // keys.
    std::lock_guard<std::mutex> lock(mu_);
    buffered_.push_back(std::move(envelope));
    return;
  }
  uint32_t dest = (envelope.msg.type == NodeMsg::Type::kGroupOutput ||
                   envelope.msg.type == NodeMsg::Type::kAbort)
                      ? kMeshDriverId
                      : envelope.to_server;
  std::shared_ptr<FaultPlan> plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    plan = fault_plan_;
  }
  if (plan != nullptr &&
      plan->LinkSevered(envelope.round_id, self_id_, dest)) {
    // Partition emulation: the link is down for this round, so the send
    // fails exactly like an unreachable peer and the failure conversion
    // below produces the round-scoped abort naming both endpoints.
    plan->CountSevered();
  } else {
    if (SendFrame(dest, LinkMsg::kEnvelope, EncodeEnvelope(envelope),
                  envelope.round_id, envelope.msg.gid)) {
      return;
    }
  }
  if (dest != kMeshDriverId) {
    // The chain cannot make progress; tell the driver instead of letting
    // the run hang until its timeout. Round-tagged, so a pipelined driver
    // aborts only the round whose traffic failed.
    SendAbortToDriver(envelope.round_id, envelope.msg.gid,
                      "transport: server " + std::to_string(self_id_) +
                          " could not reach server " +
                          std::to_string(dest));
  }
}

bool TcpPeerMesh::Run(Rng& rng) {
  ATOM_CHECK_MSG(role_ == Role::kDriver, "Run is driver-only");
  // Drawn before anything else, so a seeded driver's generator stream
  // (and the chain's output) does not depend on anything else Run does.
  std::array<uint8_t, 32> run_key;
  rng.Fill(run_key.data(), run_key.size());
  const uint64_t round_id = AllocateRoundId();

  std::vector<Envelope> to_send;
  std::vector<BeginRoundTarget> targets;  // chain runs carry no engine spec
  size_t aborts_before = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ATOM_CHECK_MSG(!running_, "Run re-entered");
    running_ = true;
    run_outputs_baseline_ = outputs_.size();
    run_aborts_baseline_ = aborts_.size();
    aborts_before = aborts_.size();
    to_send.swap(buffered_);
    for (const auto& [id, peer] : peers_.roster) {
      targets.push_back(BeginRoundTarget{id, nullptr});
    }
  }

  // Phase 1: every server opens a round-scoped lane for this run's root
  // key before any envelope can reach it (ack-synchronized because chain
  // traffic arrives on different links than ours). Chain runs carry no
  // engine spec; each lane's per-round delivery counters start at zero.
  const std::vector<uint32_t> missing = BeginRound(round_id, run_key, targets);
  const bool ready = missing.empty();
  if (!ready) {
    SynthesizeAbort(0, "transport: " + DescribeServers(missing) +
                           " did not ack the run start");
  }

  // Phase 2: inject the buffered entry envelopes, stamped with this run's
  // round id. Each one seeds exactly one chain, which ends in one
  // kGroupOutput or one kAbort.
  size_t seeds = 0;
  if (ready) {
    for (Envelope& envelope : to_send) {
      seeds++;
      envelope.round_id = round_id;
      if (!SendFrame(envelope.to_server, LinkMsg::kEnvelope,
                     EncodeEnvelope(envelope), round_id, envelope.msg.gid)) {
        SynthesizeAbort(envelope.msg.gid,
                        "transport: send to server " +
                            std::to_string(envelope.to_server) + " failed");
      }
    }
  }

  // Phase 3: wait for every chain to resolve. A synthesized abort (send
  // failure, peer EOF) counts as that chain's resolution; a stuck run
  // surfaces as a timeout abort, never a hang.
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool done = cv_.wait_for(lock, run_timeout_, [&] {
      return (outputs_.size() - run_outputs_baseline_) +
                 (aborts_.size() - run_aborts_baseline_) >=
             seeds;
    });
    if (!done) {
      aborts_.push_back(TransportAbort(
          0, "transport: timed out waiting for group outputs"));
    }
    running_ = false;
  }
  // Retire the round so the servers' bounded lane pool frees up.
  BroadcastRoundDone(round_id);
  std::lock_guard<std::mutex> lock(mu_);
  return aborts_.size() == aborts_before;
}

const std::vector<NodeMsg>& TcpPeerMesh::outputs() const {
  AssertNotRunning();
  return outputs_;
}

const std::vector<NodeMsg>& TcpPeerMesh::aborts() const {
  AssertNotRunning();
  return aborts_;
}

size_t TcpPeerMesh::output_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outputs_.size();
}

size_t TcpPeerMesh::abort_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aborts_.size();
}

void TcpPeerMesh::ClearOutputs() {
  std::lock_guard<std::mutex> lock(mu_);
  outputs_.clear();
}

void TcpPeerMesh::AssertNotRunning() const {
#ifndef NDEBUG
  std::lock_guard<std::mutex> lock(mu_);
  ATOM_CHECK_MSG(!running_,
                 "mesh outputs()/aborts() read while Run is executing");
#endif
}

void TcpPeerMesh::set_run_timeout(std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lock(mu_);
  run_timeout_ = timeout;
}

void TcpPeerMesh::set_control_timeout(std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lock(mu_);
  control_timeout_ = timeout;
}

void TcpPeerMesh::set_dial_attempts(int attempts) {
  std::lock_guard<std::mutex> lock(mu_);
  dial_attempts_ = attempts < 1 ? 1 : attempts;
}

void TcpPeerMesh::set_peer_profile(uint32_t peer_id, WanProfile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  wan_[peer_id] = profile;
}

MeshTransportStats TcpPeerMesh::Stats() const {
  // Read from the registry-backed counters, the single source of truth.
  std::lock_guard<std::mutex> lock(mu_);
  MeshTransportStats out;
  for (const auto& [id, lane] : lanes_) {
    PeerTransportStats stats;
    if (lane.obs.bytes_sent != nullptr) {
      stats.bytes_sent = lane.obs.bytes_sent->Value();
      stats.frames_sent = lane.obs.frames_sent->Value();
      stats.bundles_sent = lane.obs.bundles_sent->Value();
      stats.envelopes_bundled = lane.obs.envelopes_bundled->Value();
      stats.queue_depth_peak =
          static_cast<size_t>(lane.obs.queue_depth_peak->Value());
    }
    out.per_peer[id] = stats;
  }
  out.send_queue_drops = static_cast<size_t>(drops_->Value());
  return out;
}

void TcpPeerMesh::SetFaultPlan(std::shared_ptr<FaultPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_plan_ = std::move(plan);
}

void TcpPeerMesh::set_send_queue_bound(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  send_queue_bound_ = bytes;
}

size_t TcpPeerMesh::send_queue_drops() const {
  return static_cast<size_t>(drops_->Value());
}

}  // namespace atom
