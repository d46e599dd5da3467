#include "src/net/round_driver.h"

#include <algorithm>
#include <utility>

#include "src/core/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace atom {

namespace {

// Driver-side round telemetry (the fleet's servers carry their own engine
// metrics; these count what the coordinating process sees).
struct DriverMetrics {
  obs::Counter* rounds;
  obs::Counter* rounds_aborted;
  obs::Histogram* round_us;

  static DriverMetrics& Get() {
    static DriverMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      DriverMetrics out;
      out.rounds = reg.GetCounter("atom_driver_rounds_total");
      out.rounds_aborted = reg.GetCounter("atom_driver_rounds_aborted_total");
      out.round_us = reg.GetHistogram("atom_driver_round_duration_us");
      return out;
    }();
    return m;
  }
};

}  // namespace

DistributedRoundDriver::DistributedRoundDriver(TcpPeerMesh* mesh,
                                               std::vector<uint32_t> hosts)
    : mesh_(mesh), hosts_(std::move(hosts)) {
  ATOM_CHECK(mesh_ != nullptr);
  ATOM_CHECK_MSG(!hosts_.empty(), "need one host per topology group");
  unique_hosts_ = hosts_;
  std::sort(unique_hosts_.begin(), unique_hosts_.end());
  unique_hosts_.erase(
      std::unique(unique_hosts_.begin(), unique_hosts_.end()),
      unique_hosts_.end());
  mesh_->OnDriverEnvelope(
      [this](Envelope envelope) { HandleEnvelope(std::move(envelope)); });
  mesh_->OnPeerDown([this](uint32_t peer_id) { HandlePeerDown(peer_id); });
}

DistributedRoundDriver::~DistributedRoundDriver() {
  mesh_->OnDriverEnvelope(nullptr);
  mesh_->OnPeerDown(nullptr);
  std::vector<uint64_t> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, round] : rounds_) {
      if (!round->aborted) {
        round->aborted = true;
        round->abort_reason = "round " + std::to_string(id) +
                              ": driver destroyed before Wait";
      }
      abandoned.push_back(id);
    }
    cv_.notify_all();
  }
  // Only Wait() retires a round on the fleet; abandoned tickets would
  // otherwise pin the servers' bounded lane pools forever.
  for (uint64_t id : abandoned) {
    mesh_->BroadcastRoundDone(id, unique_hosts_);
  }
}

void DistributedRoundDriver::set_round_timeout(
    std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lock(mu_);
  round_timeout_ = timeout;
}

size_t DistributedRoundDriver::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rounds_.size();
}

uint64_t DistributedRoundDriver::Submit(EngineRound round) {
  ATOM_CHECK_MSG(round.faults.empty(),
                 "fault injection is in-process only; over the wire a "
                 "fault is a hostile server");
  ATOM_CHECK_MSG(round.exit.has_value(),
                 "a fleet round needs an exit plan (Round::TakeEngineRound)");
  // The engine's plan, checked by the same function; its wire form adds
  // hosts, layout and commitments.
  WireRoundSpec spec;
  spec.plan = PlanEngineRound(round);
  const size_t width = spec.plan.width;
  ATOM_CHECK_MSG(hosts_.size() == width, "need one host per topology group");
  spec.hosts = hosts_;
  spec.plaintext_len = static_cast<uint32_t>(round.exit->layout.plaintext_len);
  spec.padded_len = static_cast<uint32_t>(round.exit->layout.padded_len);
  spec.num_points = static_cast<uint32_t>(round.exit->layout.num_points);
  // Commitments are the bulk of the spec (one hash per message per entry
  // group), and each host only ever checks its own groups' sets — so the
  // base spec ships empty sets and each host's kBeginRound carries just
  // the groups it hosts (moved, not copied: every gid has one host).
  std::vector<std::vector<std::array<uint8_t, 32>>> all_commitments;
  if (round.variant == Variant::kTrap) {  // checked: one set per group
    all_commitments = std::move(round.exit->commitments);
  }
  spec.commitments.resize(width);

  const uint64_t round_id = mesh_->AllocateRoundId();
  DriverMetrics::Get().rounds->Add(1);
  auto pending = std::make_shared<PendingRound>();
  pending->round_id = round_id;
  if (obs::TimingEnabled() || obs::Trace::Enabled()) {
    pending->submit_us = obs::Trace::NowUs();
  }
  pending->width = width;
  pending->variant = round.variant;
  pending->hop_workers = spec.plan.hop_workers;
  pending->trustees = round.exit->trustees;
  pending->reports.resize(width);
  pending->per_group.resize(width);
  pending->got.assign(width, false);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending->deadline = std::chrono::steady_clock::now() + round_timeout_;
    // Registered before any frame leaves, so a server's instant abort
    // reply (e.g. lane bound exceeded) finds its round.
    rounds_[round_id] = pending;
  }

  // Phase 1: open the round on every hosting server in one round trip —
  // all kBeginRounds queued, then one wait for all the acks — so the root
  // key and commitments land before any traffic that depends on them (hop
  // batches arrive on different links than ours).
  {
    obs::TraceSpan begin_span("begin_round", "driver", round_id);
    std::vector<WireRoundSpec> host_specs(unique_hosts_.size(), spec);
    std::vector<TcpPeerMesh::BeginRoundTarget> targets;
    for (size_t i = 0; i < unique_hosts_.size(); i++) {
      if (!all_commitments.empty()) {
        for (uint32_t g = 0; g < width; g++) {
          if (hosts_[g] == unique_hosts_[i]) {
            host_specs[i].commitments[g] = std::move(all_commitments[g]);
          }
        }
      }
      targets.push_back({unique_hosts_[i], &host_specs[i]});
    }
    const std::vector<uint32_t> missing =
        mesh_->BeginRound(round_id, round.seed, targets);
    if (!missing.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      AbortLocked(*pending, "round " + std::to_string(round_id) + ": " +
                                DescribeServers(missing) +
                                " did not ack the round start");
      return round_id;
    }
  }

  // Phase 2: flush the entry batches — round r+1's intake enters the
  // network while round r is still mixing. Every entry batch one host
  // serves travels as a single kEnvelopeBundle through the mesh's sender
  // lane. All bundles are encoded before the first is queued: a host
  // starts mixing the moment its bundle lands, and on a shared machine
  // that work would otherwise delay encoding the rest.
  obs::TraceSpan flush_span("intake_flush", "driver", round_id);
  std::map<uint32_t, std::vector<Envelope>> by_host;
  for (uint32_t g = 0; g < width; g++) {
    NodeMsg msg;
    msg.type = NodeMsg::Type::kHopBatch;
    msg.gid = g;
    msg.chain_pos = 0;
    msg.prev_pos = 0;
    msg.batch = std::move(round.entry[g]);
    by_host[hosts_[g]].push_back(Envelope{hosts_[g], std::move(msg), round_id});
  }
  std::vector<Bytes> bodies;
  for (const auto& [host, envelopes] : by_host) {
    bodies.push_back(envelopes.size() == 1 ? EncodeEnvelope(envelopes[0])
                                           : EncodeEnvelopeBundle(envelopes));
  }
  size_t i = 0;
  for (const auto& [host, envelopes] : by_host) {
    const uint32_t gid = envelopes[0].msg.gid;
    const uint32_t count = static_cast<uint32_t>(envelopes.size());
    LinkMsg type = count == 1 ? LinkMsg::kEnvelope : LinkMsg::kEnvelopeBundle;
    if (!mesh_->SendFrame(host, type, std::move(bodies[i++]), round_id, gid,
                          count)) {
      std::lock_guard<std::mutex> lock(mu_);
      AbortLocked(*pending, "round " + std::to_string(round_id) +
                                ": entry send to server " +
                                std::to_string(host) + " failed");
      return round_id;
    }
  }
  return round_id;
}

void DistributedRoundDriver::AbortLocked(PendingRound& round,
                                         std::string reason) {
  if (!round.aborted) {
    round.aborted = true;
    round.abort_reason = std::move(reason);
  }
  cv_.notify_all();
}

void DistributedRoundDriver::HandleEnvelope(Envelope envelope) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = rounds_.find(envelope.round_id);
  if (it == rounds_.end()) {
    return;  // late frame for a resolved round: drop
  }
  PendingRound& round = *it->second;
  NodeMsg& msg = envelope.msg;
  switch (msg.type) {
    case NodeMsg::Type::kAbort:
      AbortLocked(round, "round " + std::to_string(round.round_id) + ": " +
                             msg.abort_reason);
      return;
    case NodeMsg::Type::kExitReport:
    case NodeMsg::Type::kExitPlain: {
      // Trap exits report per destination group; NIZK exits send their
      // plaintexts. One slot per gid, first arrival wins.
      const NodeMsg::Type want = round.variant == Variant::kTrap
                                     ? NodeMsg::Type::kExitReport
                                     : NodeMsg::Type::kExitPlain;
      if (msg.type == want && msg.gid < round.width && !round.got[msg.gid]) {
        round.got[msg.gid] = true;
        round.reports[msg.gid] = msg.report;
        round.per_group[msg.gid] = std::move(msg.exit_inner);
        round.seen++;
        cv_.notify_all();
      }
      return;
    }
    default:
      return;  // legacy chain traffic is not ours
  }
}

void DistributedRoundDriver::HandlePeerDown(uint32_t peer_id) {
  if (std::find(unique_hosts_.begin(), unique_hosts_.end(), peer_id) ==
      unique_hosts_.end()) {
    return;
  }
  // Per-round aborts, never a per-deployment failure: every round still
  // in flight loses this host; rounds submitted after a roster repair
  // start clean.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, round] : rounds_) {
    if (!round->Complete()) {
      AbortLocked(*round, "round " + std::to_string(id) + ": server " +
                              std::to_string(peer_id) +
                              " disconnected mid-round");
    }
  }
}

EngineRoundResult DistributedRoundDriver::Finalize(PendingRound& round) {
  EngineRoundResult result;
  RoundResult& out = result.round;
  if (round.aborted) {
    out.aborted = true;
    out.abort_reason = round.abort_reason;
  } else {
    out = FinalizeExits(round.variant, round.trustees, round.reports,
                        round.per_group, round.hop_workers);
    if (out.aborted) {
      // Round-scoped like every other driver abort: finalize runs on the
      // Wait caller's thread, but the failure is still one round's.
      out.abort_reason =
          "round " + std::to_string(round.round_id) + ": " + out.abort_reason;
    }
  }
  result.aborted = out.aborted;
  result.abort_reason = out.abort_reason;
  return result;
}

EngineRoundResult DistributedRoundDriver::Wait(uint64_t ticket) {
  std::shared_ptr<PendingRound> round;
  {
    // From the driver's seat this wait IS the fleet's mixing + exit work:
    // everything between the entry flush and the last collected report.
    obs::TraceSpan collect_span("collect", "driver", ticket);
    std::unique_lock<std::mutex> lock(mu_);
    auto it = rounds_.find(ticket);
    ATOM_CHECK_MSG(it != rounds_.end(),
                   "unknown or already-waited ticket");
    round = it->second;
    bool done = cv_.wait_until(lock, round->deadline,
                               [&] { return round->Complete(); });
    if (!done) {
      AbortLocked(*round, "round " + std::to_string(ticket) +
                              ": timed out waiting for the fleet");
    }
    rounds_.erase(ticket);
  }
  // Heavy finalize work (trustee decision, KEM decryption) runs on the
  // caller's thread, outside the lock — reader threads stay light.
  EngineRoundResult result;
  {
    obs::TraceSpan finalize_span("finalize", "driver", ticket);
    result = Finalize(*round);
  }
  DriverMetrics& metrics = DriverMetrics::Get();
  if (result.aborted) {
    metrics.rounds_aborted->Add(1);
  }
  if (round->submit_us >= 0) {
    const int64_t dur_us = obs::Trace::NowUs() - round->submit_us;
    metrics.round_us->Observe(static_cast<uint64_t>(dur_us));
    if (obs::Trace::Enabled()) {
      obs::TraceEvent event;
      event.name = "driver_round";
      event.cat = "driver";
      event.ts_us = round->submit_us;
      event.dur_us = dur_us;
      event.round_id = ticket;
      obs::Trace::Emit(event);
    }
  }
  // Retire the round on the fleet so the bounded lane pools free up. The
  // kRoundDones ride the sender lanes, so this returns at once and each
  // host still frees the lane before it sees the next kBeginRound.
  mesh_->BroadcastRoundDone(ticket, unique_hosts_);
  return result;
}

}  // namespace atom
