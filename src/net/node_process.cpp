#include "src/net/node_process.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "src/core/exit.h"
#include "src/core/wire.h"

namespace atom {
namespace {

// Tombstones kept per server: late frames for a retired round are dropped
// silently instead of re-opening state or spamming the driver.
constexpr size_t kMaxTombstones = 256;

MessageLayout SpecLayout(const WireRoundSpec& spec) {
  MessageLayout layout;
  layout.plaintext_len = spec.plaintext_len;
  layout.padded_len = spec.padded_len;
  layout.num_points = spec.num_points;
  return layout;
}

}  // namespace

NodeProcess::NodeProcess(uint32_t server_id, Variant variant,
                         KemKeypair identity, const Point& driver_pk,
                         size_t max_rounds, ThreadPool* pool)
    : server_id_(server_id),
      max_rounds_(max_rounds < 1 ? 1 : max_rounds),
      pool_(pool),
      node_(server_id, variant),
      mesh_(TcpPeerMesh::Role::kServer, server_id, std::move(identity)),
      node_serial_(pool) {
  mesh_.AddPeerKey(kMeshDriverId, driver_pk);
  // Sender-lane drains share this server's pool, so sealing the next
  // bundle and writing the current one interleave on one set of threads.
  mesh_.set_sender_pool(pool);
  mesh_.OnControl(
      [this](uint32_t peer, LinkFrame frame) {
        HandleControl(peer, std::move(frame));
      });
  mesh_.OnEnvelope(
      [this](Envelope envelope) { HandleEnvelope(std::move(envelope)); });
}

NodeProcess::~NodeProcess() { Stop(); }

bool NodeProcess::Listen(uint16_t port) { return mesh_.Listen(port); }

void NodeProcess::Start() { mesh_.Start(); }

void NodeProcess::Stop() {
  // Mesh first (readers stop submitting), then let queued handlers drain;
  // their outbound sends fail harmlessly against the closed links.
  mesh_.Stop();
  node_serial_.Drain();
  std::vector<Lane*> lanes;
  {
    std::lock_guard<std::mutex> lock(rounds_mu_);
    for (auto& lane : lanes_) {
      lanes.push_back(lane.get());
    }
  }
  for (Lane* lane : lanes) {
    lane->serial.Drain();
  }
}

void NodeProcess::HostGroup(uint32_t gid, DkgResult dkg) {
  auto runtime = std::make_unique<GroupRuntime>(gid, std::move(dkg));
  std::lock_guard<std::mutex> lock(groups_mu_);
  hosted_[gid] = std::move(runtime);
}

GroupRuntime* NodeProcess::FindHostedGroup(uint32_t gid) {
  std::lock_guard<std::mutex> lock(groups_mu_);
  auto it = hosted_.find(gid);
  return it == hosted_.end() ? nullptr : it->second.get();
}

void NodeProcess::SetOutboundTamper(std::function<void(Envelope&)> fn) {
  tamper_ = std::move(fn);
}

void NodeProcess::SetFaultPlan(std::shared_ptr<FaultPlan> plan) {
  fault_plan_ = plan;
  mesh_.SetFaultPlan(std::move(plan));
}

void NodeProcess::set_wire_delay(std::chrono::milliseconds delay) {
  mesh_.set_send_delay(delay);
}

void NodeProcess::set_peer_profile(uint32_t peer_id, WanProfile profile) {
  mesh_.set_peer_profile(peer_id, profile);
}

void NodeProcess::Ack(uint32_t peer_id, uint64_t seq) {
  mesh_.SendFrame(peer_id, LinkMsg::kAck, BytesView(EncodeAck(seq)));
}

void NodeProcess::HandleControl(uint32_t peer_id, LinkFrame frame) {
  if (peer_id != kMeshDriverId) {
    return;  // only the driver steers a server
  }
  switch (frame.type) {
    case LinkMsg::kRoster: {
      auto msg = DecodeRoster(BytesView(frame.body));
      if (!msg) {
        return;
      }
      // Applied through the control serial queue so the ack also fences
      // all earlier setup messages (the driver's ordering guarantee).
      node_serial_.Submit([this, msg = std::move(*msg),
                              peer_id]() mutable {
        mesh_.SetRoster(std::move(msg.peers));
        Ack(peer_id, msg.seq);
      });
      break;
    }
    case LinkMsg::kJoinGroup: {
      auto msg = DecodeJoinGroup(BytesView(frame.body));
      if (!msg) {
        return;
      }
      node_serial_.Submit([this, msg = std::move(*msg),
                              peer_id]() mutable {
        node_.JoinGroup(msg.gid, std::move(msg.keys));
        Ack(peer_id, msg.seq);
      });
      break;
    }
    case LinkMsg::kHostGroup: {
      auto msg = DecodeHostGroup(BytesView(frame.body));
      if (!msg) {
        return;
      }
      node_serial_.Submit([this, msg = std::move(*msg),
                              peer_id]() mutable {
        HostGroup(msg.gid, std::move(msg.dkg));
        Ack(peer_id, msg.seq);
      });
      break;
    }
    case LinkMsg::kBeginRound: {
      auto msg = DecodeBeginRound(BytesView(frame.body));
      if (!msg) {
        return;
      }
      BeginRound(peer_id, std::move(*msg));
      break;
    }
    case LinkMsg::kRoundDone: {
      auto round_id = DecodeRoundDone(BytesView(frame.body));
      if (round_id) {
        FinishRound(*round_id);
      }
      break;
    }
    case LinkMsg::kMetricsSnapshot: {
      // Telemetry pull: freeze the process registry and ship it back.
      // Runs on the control serial queue like every other reply, so it
      // cannot block the reader thread on a slow link.
      auto seq = DecodeMetricsRequest(BytesView(frame.body));
      if (!seq) {
        return;
      }
      node_serial_.Submit([this, seq = *seq, peer_id] {
        Bytes body = EncodeMetricsReply(
            seq, obs::Registry::Global().Snapshot());
        mesh_.SendFrame(peer_id, LinkMsg::kMetricsSnapshot,
                        BytesView(body));
      });
      break;
    }
    default:
      break;
  }
}

void NodeProcess::BeginRound(uint32_t peer_id, BeginRoundMsg msg) {
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(rounds_mu_);
    if (active_.contains(msg.round_id) ||
        finished_.contains(msg.round_id)) {
      // Duplicate open (driver retry): the lane exists or the round
      // already retired; re-ack so the driver is not stuck.
      Ack(peer_id, msg.seq);
      return;
    }
    Lane* lane = nullptr;
    if (!free_lanes_.empty()) {
      lane = free_lanes_.back();
      free_lanes_.pop_back();
    } else if (lanes_.size() < max_rounds_) {
      lanes_.push_back(std::make_unique<Lane>(pool_));
      lane = lanes_.back().get();
    }
    if (lane == nullptr) {
      overloaded = true;
    } else {
      auto ctx = std::make_shared<RoundCtx>();
      ctx->round_id = msg.round_id;
      ctx->root = msg.root_key;
      ctx->spec = std::move(msg.spec);
      lane->ctx = std::move(ctx);
      active_[msg.round_id] = lane;
    }
  }
  // Ack in every case — the round's fate travels as a round-tagged abort,
  // not as a control-plane stall.
  Ack(peer_id, msg.seq);
  if (overloaded) {
    mesh_.SendAbortToDriver(
        msg.round_id, 0,
        "server " + std::to_string(server_id_) +
            ": too many concurrent rounds (bound " +
            std::to_string(max_rounds_) + ")");
  }
}

void NodeProcess::FinishRound(uint64_t round_id) {
  std::lock_guard<std::mutex> lock(rounds_mu_);
  auto it = active_.find(round_id);
  if (it != active_.end()) {
    Lane* lane = it->second;
    if (lane->ctx != nullptr) {
      // Stale tasks still queued on the lane check this flag and bail.
      lane->ctx->aborted.store(true, std::memory_order_release);
      lane->ctx.reset();
    }
    free_lanes_.push_back(lane);
    active_.erase(it);
  }
  if (finished_.insert(round_id).second) {
    finished_fifo_.push_back(round_id);
    while (finished_fifo_.size() > kMaxTombstones) {
      finished_.erase(finished_fifo_.front());
      finished_fifo_.pop_front();
    }
  }
}

void NodeProcess::HandleEnvelope(Envelope envelope) {
  std::shared_ptr<RoundCtx> ctx;
  Lane* lane = nullptr;
  {
    std::lock_guard<std::mutex> lock(rounds_mu_);
    auto it = active_.find(envelope.round_id);
    if (it != active_.end()) {
      lane = it->second;
      ctx = lane->ctx;
    } else if (finished_.contains(envelope.round_id)) {
      return;  // late frame for a retired round: drop
    }
  }
  if (ctx == nullptr) {
    // Traffic for a round this server never opened: a driver bug or a
    // hostile peer. Round-tagged so only that round is charged.
    mesh_.SendAbortToDriver(
        envelope.round_id, envelope.msg.gid,
        "server " + std::to_string(server_id_) +
            ": traffic for unknown round " +
            std::to_string(envelope.round_id));
    return;
  }
  // Engine traffic runs on the round's own lane; chain-protocol traffic
  // runs on node_serial_ — the ONE queue that ever touches the shared
  // AtomNode (with JoinGroup), preserving PR 3's single-serial contract
  // even if a timed-out legacy round's handler is still executing when
  // the next round's traffic arrives.
  if (envelope.msg.type == NodeMsg::Type::kHopBatch ||
      envelope.msg.type == NodeMsg::Type::kExitBuckets) {
    lane->serial.Submit([this, ctx, msg = std::move(envelope.msg)]() mutable {
      Process(ctx, std::move(msg));
    });
  } else {
    node_serial_.Submit([this, ctx, msg = std::move(envelope.msg)]() mutable {
      Process(ctx, std::move(msg));
    });
  }
}

void NodeProcess::Process(const std::shared_ptr<RoundCtx>& ctx, NodeMsg msg) {
  try {
    switch (msg.type) {
      case NodeMsg::Type::kHopBatch:
      case NodeMsg::Type::kExitBuckets:
        // Engine rounds are all-or-nothing (one DAG): once aborted or
        // evicted, remaining engine traffic for the round is dead work.
        if (ctx->aborted.load(std::memory_order_acquire)) {
          return;
        }
        if (msg.type == NodeMsg::Type::kHopBatch) {
          ProcessHop(ctx, std::move(msg));
        } else {
          ProcessExitBuckets(ctx, std::move(msg));
        }
        break;
      default:
        // Chain-protocol messages stay per-chain: a fault in one chain
        // must not swallow the others — each still resolves in its own
        // kGroupOutput or kAbort, which the legacy Run counts on (the
        // pre-lane NodeProcess behaved exactly this way).
        ProcessChain(ctx, std::move(msg));
        break;
    }
  } catch (const std::exception& e) {
    AbortRound(ctx, msg.gid, std::string("handler threw: ") + e.what());
  } catch (...) {
    AbortRound(ctx, msg.gid, "handler threw a non-standard exception");
  }
}

void NodeProcess::ProcessChain(const std::shared_ptr<RoundCtx>& ctx,
                               NodeMsg msg) {
  if (!node_.Accepts(msg)) {
    // Misrouted, premature (keys not yet joined), or hostile: a protocol
    // fault the driver must see, not a crash.
    AbortRound(ctx, msg.gid,
               "server " + std::to_string(server_id_) +
                   ": unroutable message for group " +
                   std::to_string(msg.gid) + " at pos " +
                   std::to_string(msg.chain_pos));
    return;
  }
  // Private generator for this delivery, key-separated exactly as
  // LocalBus::DrainServer does — with the counter scoped to this round's
  // lane — so (seed, traffic) replays identically across the transports.
  std::array<uint8_t, 32> key =
      DeriveSubKey(ctx->root, server_id_, ctx->delivered++);
  Rng step_rng(BytesView(key.data(), key.size()));
  std::vector<Envelope> emitted = node_.Handle(msg, step_rng);
  for (Envelope& next : emitted) {
    Deliver(ctx, std::move(next));
  }
}

void NodeProcess::ProcessHop(const std::shared_ptr<RoundCtx>& ctx,
                             NodeMsg msg) {
  if (!ctx->spec.has_value()) {
    AbortRound(ctx, msg.gid,
               "server " + std::to_string(server_id_) +
                   ": hop batch for a round with no engine spec");
    return;
  }
  const WireRoundSpec& spec = *ctx->spec;
  const size_t layer = msg.chain_pos;
  const uint32_t gid = msg.gid;
  const uint32_t src = msg.prev_pos;
  if (layer >= spec.layers || gid >= spec.width ||
      spec.hosts[gid] != server_id_) {
    AbortRound(ctx, gid,
               "server " + std::to_string(server_id_) +
                   ": misrouted hop batch (layer " + std::to_string(layer) +
                   ", group " + std::to_string(gid) + ")");
    return;
  }
  GroupRuntime* runtime = FindHostedGroup(gid);
  if (runtime == nullptr) {
    AbortRound(ctx, gid,
               "server " + std::to_string(server_id_) +
                   " does not host group " + std::to_string(gid));
    return;
  }

  const uint64_t hop_key = layer * spec.width + gid;
  auto [it, fresh] = ctx->hops.try_emplace(hop_key);
  HopAssembly& hop = it->second;
  if (fresh) {
    if (layer == 0) {
      hop.preds = {kMeshDriverId};  // the driver injects the entry batch
    } else {
      for (uint32_t p = 0; p < spec.width; p++) {
        const auto& neighbors = spec.adjacency[layer - 1][p];
        if (std::find(neighbors.begin(), neighbors.end(), gid) !=
            neighbors.end()) {
          hop.preds.push_back(p);  // ascending by construction
        }
      }
    }
    hop.inbound.resize(hop.preds.size());
    hop.got.assign(hop.preds.size(), false);
  }
  size_t slot = 0;
  if (layer > 0) {
    auto pos = std::lower_bound(hop.preds.begin(), hop.preds.end(), src);
    if (pos == hop.preds.end() || *pos != src) {
      AbortRound(ctx, gid,
                 "hop batch from non-predecessor group " +
                     std::to_string(src));
      return;
    }
    slot = static_cast<size_t>(pos - hop.preds.begin());
  }
  if (hop.got[slot]) {
    AbortRound(ctx, gid,
               "duplicate hop batch from group " + std::to_string(src));
    return;
  }
  hop.got[slot] = true;
  hop.inbound[slot] = std::move(msg.batch);
  if (++hop.arrived < hop.preds.size()) {
    return;
  }

  // All predecessors delivered: run the hop exactly like the engine —
  // inbound concatenated in ascending predecessor order, randomness from
  // the round root key-separated by hop index.
  CiphertextBatch input;
  size_t total = 0;
  for (const CiphertextBatch& b : hop.inbound) {
    total += b.size();
  }
  input.reserve(total);
  for (CiphertextBatch& b : hop.inbound) {
    for (auto& vec : b) {
      input.push_back(std::move(vec));
    }
  }
  ctx->hops.erase(hop_key);

  const bool last = (layer + 1 == spec.layers);
  std::vector<uint32_t> neighbors;
  if (!last) {
    neighbors = spec.adjacency[layer][gid];
  }
  std::vector<CiphertextBatch> out(last ? 1 : neighbors.size());
  if (!input.empty()) {
    std::vector<Point> next_pks;
    next_pks.reserve(neighbors.size());
    for (uint32_t n : neighbors) {
      next_pks.push_back(spec.group_pks[n]);
    }
    std::vector<std::shared_ptr<const FixedBaseTable>> next_tables(
        neighbors.size());
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      for (size_t b = 0; b < neighbors.size(); b++) {
        auto it = neighbour_tables_.find(neighbors[b]);
        if (it != neighbour_tables_.end() &&
            it->second->base() == next_pks[b]) {
          next_tables[b] = it->second;
        }
      }
    }
    std::array<uint8_t, 32> key = DeriveSubKey(ctx->root, hop_key);
    Rng rng(BytesView(key.data(), key.size()));
    HopResult hop_result = runtime->RunHop(
        input, next_pks, static_cast<Variant>(spec.variant), rng,
        spec.hop_workers, nullptr, next_tables);
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      for (size_t b = 0; b < neighbors.size(); b++) {
        if (next_tables[b] != nullptr) {
          neighbour_tables_[neighbors[b]] = next_tables[b];
        }
      }
    }
    if (hop_result.aborted) {
      AbortRound(ctx, gid,
                 "group " + std::to_string(gid) + " layer " +
                     std::to_string(layer) + ": " +
                     hop_result.abort_reason);
      return;
    }
    ATOM_CHECK(hop_result.batches.size() == out.size());
    out = std::move(hop_result.batches);
  }

  if (last) {
    ProcessExitLayer(ctx, gid, std::move(out[0]));
    return;
  }
  std::vector<std::pair<uint32_t, NodeMsg>> sends;
  sends.reserve(neighbors.size());
  for (size_t b = 0; b < neighbors.size(); b++) {
    NodeMsg next;
    next.type = NodeMsg::Type::kHopBatch;
    next.gid = neighbors[b];
    next.chain_pos = static_cast<uint32_t>(layer + 1);
    next.prev_pos = gid;
    next.batch = std::move(out[b]);
    sends.emplace_back(spec.hosts[neighbors[b]], std::move(next));
  }
  FanOut(ctx, std::move(sends));
}

void NodeProcess::ProcessExitLayer(const std::shared_ptr<RoundCtx>& ctx,
                                   uint32_t gid,
                                   CiphertextBatch exit_batch) {
  const WireRoundSpec& spec = *ctx->spec;
  if (!spec.native_exit) {
    // No exit plan: the fully stripped batch routes back to the driver
    // raw (layer == spec.layers marks it as an exit batch).
    NodeMsg msg;
    msg.type = NodeMsg::Type::kHopBatch;
    msg.gid = gid;
    msg.chain_pos = spec.layers;
    msg.prev_pos = gid;
    msg.batch = std::move(exit_batch);
    Deliver(ctx, Envelope{kMeshDriverId, std::move(msg), ctx->round_id});
    return;
  }
  MessageLayout layout = SpecLayout(spec);
  if (static_cast<Variant>(spec.variant) == Variant::kTrap) {
    ExitSort sort = SortTrapExits(gid, exit_batch, layout, spec.width);
    if (!sort.ok) {
      AbortRound(ctx, gid, "exit batch not fully decrypted");
      return;
    }
    // §4.4 stage 2 is per destination group: ship each destination its
    // buckets so its host checks them against this round's commitments.
    std::vector<std::pair<uint32_t, NodeMsg>> sends;
    sends.reserve(spec.width);
    for (uint32_t d = 0; d < spec.width; d++) {
      NodeMsg msg;
      msg.type = NodeMsg::Type::kExitBuckets;
      msg.gid = d;
      msg.prev_pos = gid;
      msg.exit_traps = std::move(sort.traps_for[d]);
      msg.exit_inner = std::move(sort.inner_for[d]);
      sends.emplace_back(spec.hosts[d], std::move(msg));
    }
    FanOut(ctx, std::move(sends));
    return;
  }
  NizkExitDecode decode = DecodeNizkExits(exit_batch, layout);
  if (!decode.ok) {
    AbortRound(ctx, gid, std::move(decode.error));
    return;
  }
  NodeMsg msg;
  msg.type = NodeMsg::Type::kExitPlain;
  msg.gid = gid;
  msg.exit_inner = std::move(decode.plaintexts);
  Deliver(ctx, Envelope{kMeshDriverId, std::move(msg), ctx->round_id});
}

void NodeProcess::ProcessExitBuckets(const std::shared_ptr<RoundCtx>& ctx,
                                     NodeMsg msg) {
  if (!ctx->spec.has_value()) {
    AbortRound(ctx, msg.gid, "exit buckets for a round with no engine spec");
    return;
  }
  const WireRoundSpec& spec = *ctx->spec;
  const uint32_t dst = msg.gid;
  const uint32_t src = msg.prev_pos;
  if (dst >= spec.width || src >= spec.width ||
      spec.hosts[dst] != server_id_ || !spec.native_exit ||
      spec.commitments.size() != spec.width) {
    AbortRound(ctx, dst, "misrouted exit buckets");
    return;
  }
  auto [it, fresh] = ctx->exits.try_emplace(dst);
  ExitAssembly& exit = it->second;
  if (fresh) {
    exit.traps.resize(spec.width);
    exit.inner.resize(spec.width);
    exit.got.assign(spec.width, false);
  }
  if (exit.got[src]) {
    AbortRound(ctx, dst,
               "duplicate exit buckets from group " + std::to_string(src));
    return;
  }
  exit.got[src] = true;
  exit.traps[src] = std::move(msg.exit_traps);
  exit.inner[src] = std::move(msg.exit_inner);
  if (++exit.arrived < spec.width) {
    return;
  }

  // Every source delivered: flatten in ascending source order (the
  // GatherExitBuckets order the byte-identical plaintext sequence depends
  // on) and run this destination's checks.
  std::vector<Bytes> traps, inner;
  for (uint32_t s = 0; s < spec.width; s++) {
    for (Bytes& t : exit.traps[s]) {
      traps.push_back(std::move(t));
    }
    for (Bytes& i : exit.inner[s]) {
      inner.push_back(std::move(i));
    }
  }
  ctx->exits.erase(dst);
  GroupReport report =
      CheckExitGroup(dst, traps, inner, spec.commitments[dst]);
  NodeMsg out;
  out.type = NodeMsg::Type::kExitReport;
  out.gid = dst;
  out.report = report;
  out.exit_inner = std::move(inner);
  Deliver(ctx, Envelope{kMeshDriverId, std::move(out), ctx->round_id});
}

void NodeProcess::SendToServer(const std::shared_ptr<RoundCtx>& ctx,
                               uint32_t dest_server, NodeMsg msg) {
  Envelope envelope{dest_server, std::move(msg), ctx->round_id};
  if (dest_server == server_id_) {
    // Self-hosted destination: back into our own lane without touching
    // the network (there is no link to ourselves).
    if (tamper_) {
      tamper_(envelope);
    }
    ApplyPlanTamper(ctx, envelope);
    HandleEnvelope(std::move(envelope));
    return;
  }
  Deliver(ctx, std::move(envelope));
}

void NodeProcess::ApplyPlanTamper(const std::shared_ptr<RoundCtx>& ctx,
                                  Envelope& envelope) {
  if (fault_plan_ == nullptr || !fault_plan_->TamperRound(ctx->round_id)) {
    return;
  }
  // Byzantine mixer: re-point every ciphertext of the outbound hop batch.
  // The encodings stay valid (real curve points), so the fault is
  // protocol-level cheating — caught by the §4.4 trap check at the exit,
  // not by transport authentication. Tampering the whole batch (rather
  // than one ciphertext) guarantees at least one trap is destroyed, so a
  // tampered round deterministically aborts instead of depending on the
  // trap/inner coin of a single slot.
  NodeMsg& msg = envelope.msg;
  if (msg.type == NodeMsg::Type::kHopBatch) {
    for (ElGamalCiphertextVec& vec : msg.batch) {
      for (ElGamalCiphertext& ct : vec) {
        ct.c = ct.c + Point::Generator();
      }
    }
  }
}

void NodeProcess::AbortRound(const std::shared_ptr<RoundCtx>& ctx,
                             uint32_t gid, std::string reason) {
  ctx->aborted.store(true, std::memory_order_release);
  mesh_.SendAbortToDriver(ctx->round_id, gid, std::move(reason));
}

void NodeProcess::Deliver(const std::shared_ptr<RoundCtx>& ctx,
                          Envelope envelope) {
  envelope.round_id = ctx->round_id;
  if (tamper_) {
    tamper_(envelope);
  }
  ApplyPlanTamper(ctx, envelope);
  mesh_.Send(std::move(envelope));
}

void NodeProcess::FanOut(const std::shared_ptr<RoundCtx>& ctx,
                         std::vector<std::pair<uint32_t, NodeMsg>> sends) {
  if (!coalesce_) {
    // Legacy path (before/after bench rows): one frame per sub-batch,
    // serialized and sent inline on this lane's thread.
    for (auto& [dest, msg] : sends) {
      SendToServer(ctx, dest, std::move(msg));
    }
    return;
  }
  // Coalesced path: group by destination host so each peer receives one
  // kEnvelopeBundle for this hop. The mesh's sender lane picks the frame
  // up asynchronously — by the time it hits the socket, this thread is
  // already sealing the next destination's bundle.
  std::map<uint32_t, std::vector<Envelope>> by_host;
  for (auto& [dest, msg] : sends) {
    if (dest == server_id_) {
      SendToServer(ctx, dest, std::move(msg));  // self short-circuit
      continue;
    }
    Envelope envelope{dest, std::move(msg), ctx->round_id};
    if (tamper_) {
      tamper_(envelope);
    }
    ApplyPlanTamper(ctx, envelope);
    by_host[dest].push_back(std::move(envelope));
  }
  for (auto& [dest, envelopes] : by_host) {
    mesh_.SendEnvelopes(std::move(envelopes));
  }
}

}  // namespace atom
