#include "src/net/node_process.h"

#include <string>
#include <utility>

#include "src/core/exit.h"
#include "src/core/wire.h"

namespace atom {
namespace {

// Tombstones kept per server: late frames for a retired round are dropped
// silently instead of re-opening state or spamming the driver.
constexpr size_t kMaxTombstones = 256;

}  // namespace

NodeProcess::NodeProcess(uint32_t server_id, Variant variant,
                         KemKeypair identity, const Point& driver_pk,
                         size_t max_rounds)
    : server_id_(server_id),
      max_rounds_(max_rounds < 1 ? 1 : max_rounds),
      node_(server_id, variant),
      mesh_(TcpPeerMesh::Role::kServer, server_id, std::move(identity)) {
  mesh_.AddPeerKey(kMeshDriverId, driver_pk);
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

void NodeProcess::set_peer_profile(uint32_t peer_id, WanProfile profile) {
  mesh_.set_peer_profile(peer_id, profile);
}

void NodeProcess::Ack(uint32_t peer_id, uint64_t seq) {
  mesh_.SendFrame(peer_id, LinkMsg::kAck, EncodeAck(seq));
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
      // Encoded on the control serial queue like every other reply, off
      // the reader thread.
      auto seq = DecodeMetricsRequest(BytesView(frame.body));
      if (!seq) {
        return;
      }
      node_serial_.Submit([this, seq = *seq, peer_id] {
        mesh_.SendFrame(
            peer_id, LinkMsg::kMetricsSnapshot,
            EncodeMetricsReply(seq, obs::Registry::Global().Snapshot()));
      });
      break;
    }
    default:
      break;
  }
}

void NodeProcess::BeginRound(uint32_t peer_id, BeginRoundMsg msg) {
  // Why the round cannot open here, if it cannot: a plan no executor could
  // run (a sink before the exit layer, a hop nothing feeds, a repeated
  // edge), or the lane bound.
  std::string refused;
  if (msg.spec.has_value() && !msg.spec->plan.error.empty()) {
    refused = "round plan refused: " + msg.spec->plan.error;
  }
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
    if (refused.empty()) {
      if (!free_lanes_.empty()) {
        lane = free_lanes_.back();
        free_lanes_.pop_back();
      } else if (lanes_.size() < max_rounds_) {
        lanes_.push_back(std::make_unique<Lane>());
        lane = lanes_.back().get();
      } else {
        refused = "too many concurrent rounds (bound " +
                  std::to_string(max_rounds_) + ")";
      }
    }
    if (lane == nullptr) {
      RetireLocked(msg.round_id);  // its traffic is dropped from now on
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
  if (!refused.empty()) {
    mesh_.SendAbortToDriver(msg.round_id, 0,
                            "server " + std::to_string(server_id_) + ": " +
                                refused);
  }
}

void NodeProcess::FinishRound(uint64_t round_id) {
  std::lock_guard<std::mutex> lock(rounds_mu_);
  RetireLocked(round_id);
}

void NodeProcess::RetireLocked(uint64_t round_id) {
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
  // AtomNode (with JoinGroup), so it stays single-serial even if a
  // timed-out chain round's handler is still executing when the next
  // round's traffic arrives.
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
  const uint32_t gid = msg.gid;
  auto threw = RunCatching("handler", [&] {
    switch (msg.type) {
      case NodeMsg::Type::kHopBatch:
      case NodeMsg::Type::kExitBuckets:
        // Engine rounds are all-or-nothing (one DAG): once aborted or
        // evicted, remaining engine traffic for the round is dead work.
        if (ctx->aborted.load(std::memory_order_acquire)) {
          return;
        }
        if (!ctx->spec.has_value()) {
          AbortRound(ctx, gid,
                     "server " + std::to_string(server_id_) +
                         ": engine traffic for a round with no engine spec");
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
        // kGroupOutput or kAbort, which TcpPeerMesh::Run counts on.
        ProcessChain(ctx, std::move(msg));
        break;
    }
  });
  if (threw) {
    AbortRound(ctx, gid, std::move(*threw));
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
  // Private generator for this delivery, key-separated from the round's
  // root by (server id, per-round delivery count), so a seeded run replays
  // byte for byte whenever each server's arrival order is deterministic
  // (true for serial chain traffic).
  std::array<uint8_t, 32> key =
      DeriveSubKey(ctx->root, server_id_, ctx->delivered++);
  Rng step_rng(BytesView(key.data(), key.size()));
  Deliver(ctx, node_.Handle(std::move(msg), step_rng));
}

void NodeProcess::ProcessHop(const std::shared_ptr<RoundCtx>& ctx,
                             NodeMsg msg) {
  const WireRoundSpec& spec = *ctx->spec;
  const RoundPlan& plan = spec.plan;
  const size_t layer = msg.chain_pos;
  const uint32_t gid = msg.gid;
  const uint32_t src = msg.prev_pos;
  if (layer >= plan.layers || gid >= plan.width ||
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

  // The driver injects the entry batch into layer 0's single slot; later
  // layers take one slot per predecessor, in the plan's ascending order.
  size_t slot = 0;
  if (layer > 0) {
    std::optional<size_t> pred_slot = plan.Slot(layer, gid, src);
    if (!pred_slot.has_value()) {
      AbortRound(ctx, gid,
                 "hop batch from non-predecessor group " +
                     std::to_string(src));
      return;
    }
    slot = *pred_slot;
  }
  const uint64_t hop_key = layer * plan.width + gid;
  const size_t slots = layer == 0 ? 1 : plan.preds[hop_key].size();
  auto& hop = ctx->hops[hop_key];
  if (!hop.Put(slots, slot, std::move(msg.batch))) {
    AbortRound(ctx, gid,
               "duplicate hop batch from group " + std::to_string(src));
    return;
  }
  if (hop.arrived < slots) {
    return;
  }
  std::vector<CiphertextBatch> inbound = std::move(hop.slots);
  ctx->hops.erase(hop_key);

  std::span<const uint32_t> next = plan.Successors(layer, gid);
  std::vector<std::shared_ptr<const FixedBaseTable>> next_tables(next.size());
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (size_t b = 0; b < next.size(); b++) {
      auto cached = neighbour_tables_.find(next[b]);
      if (cached != neighbour_tables_.end() &&
          cached->second->base() == plan.group_pks[next[b]]) {
        next_tables[b] = cached->second;
      }
    }
  }
  HopResult result = RunRoundHop(plan, ctx->root, *runtime, layer, gid,
                                 std::move(inbound), next_tables, nullptr,
                                 ctx->round_id);
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    for (size_t b = 0; b < next.size(); b++) {
      if (next_tables[b] != nullptr) {
        neighbour_tables_[next[b]] = next_tables[b];
      }
    }
  }
  if (result.aborted) {
    AbortRound(ctx, gid, std::move(result.abort_reason));
    return;
  }

  if (next.empty()) {
    ProcessExitLayer(ctx, gid, std::move(result.batches[0]));
    return;
  }
  std::vector<std::pair<uint32_t, NodeMsg>> sends;
  sends.reserve(next.size());
  for (size_t b = 0; b < next.size(); b++) {
    NodeMsg out;
    out.type = NodeMsg::Type::kHopBatch;
    out.gid = next[b];
    out.chain_pos = static_cast<uint32_t>(layer + 1);
    out.prev_pos = gid;
    out.batch = std::move(result.batches[b]);
    sends.emplace_back(spec.hosts[next[b]], std::move(out));
  }
  FanOut(ctx, std::move(sends));
}

void NodeProcess::ProcessExitLayer(const std::shared_ptr<RoundCtx>& ctx,
                                   uint32_t gid,
                                   CiphertextBatch exit_batch) {
  const WireRoundSpec& spec = *ctx->spec;
  const MessageLayout layout{spec.plaintext_len, spec.padded_len,
                             spec.num_points};
  if (spec.plan.variant == Variant::kTrap) {
    ExitSort sort = SortTrapExits(gid, exit_batch, layout, spec.plan.width);
    if (!sort.ok) {
      AbortRound(ctx, gid, "exit batch not fully decrypted");
      return;
    }
    // §4.4 stage 2 is per destination group: ship each destination its
    // bucket so its host checks it against this round's commitments.
    std::vector<std::pair<uint32_t, NodeMsg>> sends;
    sends.reserve(spec.plan.width);
    for (uint32_t d = 0; d < spec.plan.width; d++) {
      NodeMsg msg;
      msg.type = NodeMsg::Type::kExitBuckets;
      msg.gid = d;
      msg.prev_pos = gid;
      msg.exit_traps = std::move(sort.for_dst[d].traps);
      msg.exit_inner = std::move(sort.for_dst[d].inner);
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
  const WireRoundSpec& spec = *ctx->spec;
  const uint32_t dst = msg.gid;
  const uint32_t src = msg.prev_pos;
  const size_t width = spec.plan.width;
  if (dst >= width || src >= width || spec.hosts[dst] != server_id_ ||
      spec.plan.variant != Variant::kTrap) {
    AbortRound(ctx, dst, "misrouted exit buckets");
    return;
  }
  auto& exit = ctx->exits[dst];
  if (!exit.Put(width, src,
                {std::move(msg.exit_traps), std::move(msg.exit_inner)})) {
    AbortRound(ctx, dst,
               "duplicate exit buckets from group " + std::to_string(src));
    return;
  }
  if (exit.arrived < width) {
    return;
  }

  // Every source delivered: this destination's checks.
  ExitBucket all = GatherExitBuckets(exit.slots);
  ctx->exits.erase(dst);
  NodeMsg out;
  out.type = NodeMsg::Type::kExitReport;
  out.gid = dst;
  out.report = CheckExitGroup(dst, all.traps, all.inner,
                              spec.commitments[dst]);
  out.exit_inner = std::move(all.inner);
  Deliver(ctx, Envelope{kMeshDriverId, std::move(out), ctx->round_id});
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
  // Group by destination host so each peer receives one kEnvelopeBundle
  // for this hop. The mesh's sender lane picks the frame up
  // asynchronously — by the time it hits the socket, this thread is
  // already sealing the next destination's bundle.
  std::map<uint32_t, std::vector<Envelope>> by_host;
  for (auto& [dest, msg] : sends) {
    Envelope envelope{dest, std::move(msg), ctx->round_id};
    if (tamper_) {
      tamper_(envelope);
    }
    ApplyPlanTamper(ctx, envelope);
    if (dest == server_id_) {
      // Self-hosted destination: back into our own lane without touching
      // the network (there is no link to ourselves).
      HandleEnvelope(std::move(envelope));
      continue;
    }
    by_host[dest].push_back(std::move(envelope));
  }
  for (auto& [dest, envelopes] : by_host) {
    mesh_.SendEnvelopes(std::move(envelopes));
  }
}

}  // namespace atom
