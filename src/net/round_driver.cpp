#include "src/net/round_driver.h"

#include <algorithm>
#include <utility>

#include "src/core/wire.h"
#include "src/crypto/kem.h"
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
  ATOM_CHECK(round.topology != nullptr);
  ATOM_CHECK_MSG(round.faults.empty(),
                 "fault injection is in-process only; over the wire a "
                 "fault is a hostile server");
  const size_t layers = round.topology->NumLayers();
  const size_t width = round.topology->Width();
  ATOM_CHECK_MSG(layers >= 1 && width >= 1,
                 "topology must have at least one layer and one vertex");
  ATOM_CHECK_MSG(hosts_.size() == width, "need one host per topology group");
  ATOM_CHECK_MSG(round.groups.size() == width,
                 "need one GroupRuntime per topology vertex");
  ATOM_CHECK_MSG(round.entry.size() == width,
                 "need one entry batch per topology vertex");

  // The wire form of this round's plan, mirroring RoundEngine::Submit's
  // DAG construction (same adjacency, same hop indexing).
  WireRoundSpec spec;
  spec.variant = static_cast<uint8_t>(round.variant);
  spec.layers = static_cast<uint32_t>(layers);
  spec.width = static_cast<uint32_t>(width);
  spec.hop_workers = static_cast<uint32_t>(
      round.hop_workers < 1 ? 1 : round.hop_workers);
  spec.adjacency.resize(layers - 1);
  for (size_t layer = 0; layer + 1 < layers; layer++) {
    spec.adjacency[layer].resize(width);
    for (uint32_t g = 0; g < width; g++) {
      spec.adjacency[layer][g] = round.topology->Neighbors(layer, g);
    }
  }
  spec.hosts = hosts_;
  for (uint32_t g = 0; g < width; g++) {
    ATOM_CHECK(round.groups[g] != nullptr);
    spec.group_pks.push_back(round.groups[g]->pk());
  }
  // Commitments are the bulk of the spec (one hash per message per entry
  // group), and each host only ever checks its own groups' sets — so the
  // base spec ships empty sets and each host's kBeginRound carries just
  // the groups it hosts (moved, not copied: every gid has one host).
  std::vector<std::vector<std::array<uint8_t, 32>>> all_commitments;
  spec.commitments.resize(width);
  const Trustees* trustees = nullptr;
  if (round.exit.has_value()) {
    spec.native_exit = true;
    spec.plaintext_len =
        static_cast<uint32_t>(round.exit->layout.plaintext_len);
    spec.padded_len = static_cast<uint32_t>(round.exit->layout.padded_len);
    spec.num_points = static_cast<uint32_t>(round.exit->layout.num_points);
    if (round.variant == Variant::kTrap) {
      trustees = round.exit->trustees;
      ATOM_CHECK_MSG(trustees != nullptr,
                     "trap exit plan needs a trustee group");
      ATOM_CHECK_MSG(round.exit->commitments.size() == width,
                     "need one commitment set per entry group");
      all_commitments = std::move(round.exit->commitments);
    }
  }

  const uint64_t round_id = mesh_->AllocateRoundId();
  DriverMetrics::Get().rounds->Add(1);
  auto pending = std::make_shared<PendingRound>();
  pending->round_id = round_id;
  if (obs::TimingEnabled() || obs::Trace::Enabled()) {
    pending->submit_us = obs::Trace::NowUs();
  }
  pending->width = width;
  pending->layers = layers;
  pending->variant = round.variant;
  pending->hop_workers = spec.hop_workers;
  pending->native_exit = spec.native_exit;
  pending->trustees = trustees;
  pending->exits.resize(width);
  pending->exits_got.assign(width, false);
  pending->reports.resize(width);
  pending->inner.resize(width);
  pending->plains.resize(width);
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
    if (!mesh_->SendFrameAsync(host, type, std::move(bodies[i++]), round_id,
                               gid, count)) {
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
    case NodeMsg::Type::kHopBatch:
      // chain_pos == layers marks a raw exit batch (no native exit plan).
      if (!round.native_exit && msg.chain_pos == round.layers &&
          msg.gid < round.width && !round.exits_got[msg.gid]) {
        round.exits_got[msg.gid] = true;
        round.exits[msg.gid] = std::move(msg.batch);
        round.exits_seen++;
        cv_.notify_all();
      }
      return;
    case NodeMsg::Type::kExitReport:
      if (round.native_exit && round.variant == Variant::kTrap &&
          msg.gid < round.width && !round.reports[msg.gid].has_value()) {
        round.reports[msg.gid] = msg.report;
        round.inner[msg.gid] = std::move(msg.exit_inner);
        round.reports_seen++;
        cv_.notify_all();
      }
      return;
    case NodeMsg::Type::kExitPlain:
      if (round.native_exit && round.variant == Variant::kNizk &&
          msg.gid < round.width && !round.plains[msg.gid].has_value()) {
        round.plains[msg.gid] = std::move(msg.exit_inner);
        round.plains_seen++;
        cv_.notify_all();
      }
      return;
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
  if (round.aborted) {
    result.aborted = true;
    result.abort_reason = round.abort_reason;
    if (round.native_exit) {
      result.round.aborted = true;
      result.round.abort_reason = round.abort_reason;
    }
    return result;
  }
  if (!round.native_exit) {
    result.exits = std::move(round.exits);
    return result;
  }
  RoundResult& out = result.round;
  if (round.variant == Variant::kNizk) {
    for (size_t g = 0; g < round.width; g++) {
      for (Bytes& p : *round.plains[g]) {
        out.plaintexts.push_back(std::move(p));
      }
    }
    return result;
  }
  // Trap finalize, mirroring RoundEngine::ExecuteExitFinalize: reports in
  // ascending gid order, trustee decision, then pooled KEM decryption of
  // the gathered inner ciphertexts in the same flatten order.
  std::vector<GroupReport> reports;
  reports.reserve(round.width);
  for (size_t g = 0; g < round.width; g++) {
    reports.push_back(*round.reports[g]);
    out.traps_seen += reports.back().num_traps;
    out.inner_seen += reports.back().num_inner;
  }
  auto round_secret = round.trustees->MaybeReleaseKey(reports);
  if (!round_secret.has_value()) {
    out.aborted = true;
    // Round-scoped like every other driver abort: finalize runs on the
    // Wait caller's thread, but the failure is still one round's.
    out.abort_reason =
        "round " + std::to_string(round.round_id) +
        ": trustees refused to release the round key (trap check failed)";
    result.aborted = true;
    result.abort_reason = out.abort_reason;
    return result;
  }
  std::vector<const Bytes*> flat;
  for (size_t g = 0; g < round.width; g++) {
    for (const Bytes& ct : round.inner[g]) {
      flat.push_back(&ct);
    }
  }
  std::vector<std::optional<Bytes>> decrypted(flat.size());
  ParallelFor(round.hop_workers, flat.size(), [&](size_t i) {
    decrypted[i] = KemDecrypt(*round_secret, BytesView(*flat[i]));
  });
  for (auto& msg : decrypted) {
    if (msg.has_value()) {
      out.plaintexts.push_back(std::move(*msg));
    }
  }
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
