#include "src/core/round.h"

#include <cmath>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

namespace atom {

namespace {

// Streaming-intake telemetry, aggregated across every Round in the
// process (one per server in the distributed deployment). Counts are
// per-submission but carry no client identity — aggregate-only like the
// rest of the observability plane.
struct IntakeMetrics {
  obs::Counter* accepted;
  obs::Counter* rejected;
  obs::Counter* backpressure;
  obs::Gauge* stream_depth_peak;

  static IntakeMetrics& Get() {
    static IntakeMetrics m = [] {
      obs::Registry& reg = obs::Registry::Global();
      IntakeMetrics out;
      out.accepted = reg.GetCounter("atom_intake_accepted_total");
      out.rejected = reg.GetCounter("atom_intake_rejected_total");
      out.backpressure = reg.GetCounter("atom_intake_backpressure_total");
      out.stream_depth_peak = reg.GetGauge("atom_intake_stream_depth_peak");
      return out;
    }();
    return m;
  }
};

}  // namespace

Round::Round(RoundConfig config, Rng& rng)
    : config_(std::move(config)),
      layout_(LayoutFor(config_.params.variant, config_.params.message_len)) {
  const AtomParams& p = config_.params;
  std::string problem = p.Validate();
  ATOM_CHECK_MSG(problem.empty(), "invalid AtomParams: %s", problem.c_str());

  group_layout_ = FormGroups(p.num_servers, p.num_groups, p.group_size,
                             BytesView(config_.beacon));
  groups_.reserve(p.num_groups);
  for (uint32_t g = 0; g < p.num_groups; g++) {
    DkgParams dkg_params{p.group_size, p.Threshold()};
    groups_.push_back(
        std::make_unique<GroupRuntime>(g, RunDkg(dkg_params, rng)));
  }
  if (p.variant == Variant::kTrap) {
    trustees_ = std::make_unique<Trustees>(p.group_size, p.Threshold(), rng);
  }
  if (p.topology == TopologyKind::kSquare) {
    topology_ = std::make_unique<SquareTopology>(p.num_groups, p.iterations);
  } else {
    size_t log2_width = 0;
    while ((size_t{1} << log2_width) < p.num_groups) {
      log2_width++;
    }
    ATOM_CHECK_MSG((size_t{1} << log2_width) == p.num_groups,
                   "butterfly topology needs a power-of-two group count");
    topology_ = std::make_unique<ButterflyTopology>(log2_width,
                                                    p.iterations);
  }

  intake_.reserve(p.num_groups);
  for (uint32_t g = 0; g < p.num_groups; g++) {
    intake_.push_back(
        std::make_unique<IntakeShard>(config_.stream_queue_capacity));
  }
}

void Round::SetClientAuth(std::function<bool(uint64_t)> fn) {
  client_auth_ = std::move(fn);
}

const Point& Round::EntryPk(uint32_t gid) const {
  ATOM_CHECK(gid < groups_.size());
  return groups_[gid]->pk();
}

const Point& Round::TrusteePk() const {
  ATOM_CHECK(trustees_ != nullptr);
  return trustees_->round_pk();
}

bool Round::AcceptNizk(const NizkSubmission& submission) {
  IntakeShard& shard = *intake_[submission.entry_gid];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (submission.client_id != kAnonymousClient &&
      !shard.clients.insert(submission.client_id).second) {
    return false;  // duplicate client id within this engine round
  }
  shard.batch.push_back(submission.ciphertext);
  return true;
}

bool Round::AcceptTrap(const TrapSubmission& submission) {
  IntakeShard& shard = *intake_[submission.entry_gid];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (submission.client_id != kAnonymousClient &&
      !shard.clients.insert(submission.client_id).second) {
    return false;  // duplicate client id within this engine round
  }
  shard.batch.push_back(submission.first);
  shard.batch.push_back(submission.second);
  shard.commitments.push_back(submission.trap_commitment);
  shard.submissions.push_back(submission);
  return true;
}

bool Round::ClientAllowed(uint64_t client_id) const {
  // An unwired registry accepts every id (the in-process drivers stand in
  // for channel authentication, as before); a wired one gates every
  // non-anonymous id at intake, mirroring the gateway's channel check.
  return client_id == kAnonymousClient || client_auth_ == nullptr ||
         client_auth_(client_id);
}

bool Round::SubmitNizk(const NizkSubmission& submission) {
  ATOM_CHECK(config_.params.variant == Variant::kNizk);
  // Verification is the expensive part and touches no shared state; only
  // the accept runs under the shard lock.
  if (submission.entry_gid >= groups_.size() ||
      !ClientAllowed(submission.client_id) ||
      !VerifyNizkSubmission(EntryPk(submission.entry_gid), submission,
                            layout_)) {
    return false;
  }
  return AcceptNizk(submission);
}

bool Round::SubmitTrap(const TrapSubmission& submission) {
  ATOM_CHECK(config_.params.variant == Variant::kTrap);
  if (submission.entry_gid >= groups_.size() ||
      !ClientAllowed(submission.client_id) ||
      !VerifyTrapSubmission(EntryPk(submission.entry_gid), submission,
                            layout_)) {
    return false;
  }
  return AcceptTrap(submission);
}

std::vector<bool> Round::SubmitNizkBatch(std::span<const NizkSubmission> subs,
                                         size_t workers) {
  ATOM_CHECK(config_.params.variant == Variant::kNizk);
  std::vector<uint8_t> valid(subs.size(), 0);
  ParallelFor(workers, subs.size(), [&](size_t i) {
    const NizkSubmission& s = subs[i];
    valid[i] = s.entry_gid < groups_.size() && ClientAllowed(s.client_id) &&
               VerifyNizkSubmission(EntryPk(s.entry_gid), s, layout_);
  });
  std::vector<bool> accepted(subs.size(), false);
  for (size_t i = 0; i < subs.size(); i++) {
    accepted[i] = valid[i] && AcceptNizk(subs[i]);
  }
  return accepted;
}

std::vector<bool> Round::SubmitTrapBatch(std::span<const TrapSubmission> subs,
                                         size_t workers) {
  ATOM_CHECK(config_.params.variant == Variant::kTrap);
  std::vector<uint8_t> valid(subs.size(), 0);
  ParallelFor(workers, subs.size(), [&](size_t i) {
    const TrapSubmission& s = subs[i];
    valid[i] = s.entry_gid < groups_.size() && ClientAllowed(s.client_id) &&
               VerifyTrapSubmission(EntryPk(s.entry_gid), s, layout_);
  });
  std::vector<bool> accepted(subs.size(), false);
  for (size_t i = 0; i < subs.size(); i++) {
    accepted[i] = valid[i] && AcceptTrap(subs[i]);
  }
  return accepted;
}

bool Round::StreamSubmit(StreamedSubmission item) {
  const uint32_t gid = config_.params.variant == Variant::kTrap
                           ? item.trap.entry_gid
                           : item.nizk.entry_gid;
  if (gid >= intake_.size()) {
    IntakeMetrics::Get().rejected->Add(1);
    return false;
  }
  IntakeShard& shard = *intake_[gid];
  if (!shard.stream.TryPush(std::move(item))) {
    // Ring full: the backpressure verdict the gateway relays to clients.
    IntakeMetrics::Get().backpressure->Add(1);
    return false;
  }
  IntakeMetrics::Get().stream_depth_peak->UpdateMax(
      static_cast<int64_t>(shard.stream.SizeApprox()));
  return true;
}

size_t Round::PumpStream(
    uint32_t gid, size_t workers,
    const std::function<void(uint64_t cookie, bool accepted)>& done) {
  ATOM_CHECK(gid < intake_.size());
  IntakeShard& shard = *intake_[gid];
  // Drain what is queued NOW into one span; submissions arriving while
  // this span verifies are the next pump's work — that is the pipelining.
  std::vector<StreamedSubmission> items;
  while (auto item = shard.stream.TryPop()) {
    items.push_back(std::move(*item));
  }
  if (items.empty()) {
    return 0;
  }
  obs::TraceSpan span("verify", "intake", 0, "gid", gid, "items",
                      items.size());

  // Signature gate first: fold every signed item in the span into one
  // SchnorrVerifyBatch (a single MSM). Only on batch failure do we pay for
  // per-signature verification to identify the culprits — the honest-path
  // cost stays one MSM regardless of span size.
  std::vector<uint8_t> sig_ok(items.size(), 1);
  std::vector<size_t> signed_idx;
  std::vector<Point> sig_pks;
  std::vector<BytesView> sig_msgs;
  std::vector<SchnorrSignature> sigs;
  for (size_t i = 0; i < items.size(); i++) {
    if (items[i].has_sig) {
      signed_idx.push_back(i);
      sig_pks.push_back(items[i].sig_pk);
      sig_msgs.push_back(BytesView(items[i].sig_msg));
      sigs.push_back(items[i].sig);
    }
  }
  if (!signed_idx.empty() && !SchnorrVerifyBatch(sig_pks, sig_msgs, sigs)) {
    for (size_t j = 0; j < signed_idx.size(); j++) {
      if (!SchnorrVerify(sig_pks[j], sig_msgs[j], sigs[j])) {
        sig_ok[signed_idx[j]] = 0;
      }
    }
  }

  // Proof verification + acceptance for the signature survivors.
  const bool is_trap = config_.params.variant == Variant::kTrap;
  std::vector<size_t> batch_idx;  // items index per batch element
  std::vector<NizkSubmission> nizk;
  std::vector<TrapSubmission> trap;
  for (size_t i = 0; i < items.size(); i++) {
    if (!sig_ok[i]) {
      continue;
    }
    batch_idx.push_back(i);
    if (is_trap) {
      trap.push_back(std::move(items[i].trap));
    } else {
      nizk.push_back(std::move(items[i].nizk));
    }
  }
  std::vector<bool> accepted =
      is_trap ? SubmitTrapBatch(trap, workers)
              : SubmitNizkBatch(nizk, workers);
  std::vector<uint8_t> ok(items.size(), 0);
  size_t num_ok = 0;
  for (size_t j = 0; j < batch_idx.size(); j++) {
    ok[batch_idx[j]] = accepted[j] ? 1 : 0;
    num_ok += accepted[j] ? 1 : 0;
  }
  IntakeMetrics& metrics = IntakeMetrics::Get();
  metrics.accepted->Add(num_ok);
  // Batch-verify rejects: bad signature, bad proof, duplicate client.
  metrics.rejected->Add(items.size() - num_ok);
  if (done) {
    for (size_t i = 0; i < items.size(); i++) {
      done(items[i].cookie, ok[i] != 0);
    }
  }
  return items.size();
}

size_t Round::StreamDepth(uint32_t gid) const {
  ATOM_CHECK(gid < intake_.size());
  return intake_[gid]->stream.SizeApprox();
}

Round::IntakeEpoch Round::DrainIntake() {
  const size_t G = config_.params.num_groups;
  IntakeEpoch epoch;
  epoch.entry.resize(G);
  epoch.commitments.resize(G);
  std::vector<std::vector<TrapSubmission>> submissions(G);
  for (uint32_t g = 0; g < G; g++) {
    IntakeShard& shard = *intake_[g];
    std::lock_guard<std::mutex> lock(shard.mu);
    epoch.entry[g] = std::move(shard.batch);
    epoch.commitments[g] = std::move(shard.commitments);
    submissions[g] = std::move(shard.submissions);
    shard.batch = {};
    shard.commitments = {};
    shard.submissions = {};
    shard.clients.clear();
  }
  std::lock_guard<std::mutex> lock(epoch_mu_);
  epoch.id = next_epoch_++;
  blame_history_[epoch.id] = std::move(submissions);
  while (blame_history_.size() > kBlameHistoryEpochs) {
    blame_history_.erase(blame_history_.begin());  // oldest epoch first
  }
  return epoch;
}

RoundResult Round::Run(Rng& rng, const Evil* evil) {
  if (evil == nullptr) {
    return RunWithEvils(rng, {});
  }
  return RunWithEvils(rng, std::span<const Evil>(evil, 1));
}

EngineRound Round::TakeEngineRound(std::span<const Evil> evils, Rng& rng) {
  IntakeEpoch epoch = DrainIntake();
  std::vector<CiphertextBatch>& entry = epoch.entry;
  const AtomParams& p = config_.params;
  const size_t G = topology_->Width();

  // §3: butterfly mixing needs a constant fraction of dummies; each entry
  // group pads its own batch (dummies are discarded at the exit).
  if (p.topology == TopologyKind::kButterfly &&
      p.butterfly_dummy_fraction > 0) {
    for (uint32_t g = 0; g < G; g++) {
      size_t dummies = static_cast<size_t>(
          std::ceil(static_cast<double>(entry[g].size()) *
                    p.butterfly_dummy_fraction));
      for (size_t d = 0; d < dummies; d++) {
        Bytes plain = MakeDummyPlaintext(layout_, rng);
        entry[g].push_back(ElGamalEncryptVec(
            groups_[g]->pk_table(),
            FragmentToPoints(BytesView(plain), layout_), rng));
      }
    }
  }

  EngineRound spec;
  spec.topology = topology_.get();
  spec.groups.reserve(G);
  for (uint32_t g = 0; g < G; g++) {
    spec.groups.push_back(groups_[g].get());
  }
  spec.variant = p.variant;
  spec.hop_workers = config_.workers;
  spec.entry = std::move(entry);
  spec.faults.reserve(evils.size());
  for (const Evil& evil : evils) {
    spec.faults.push_back(HopFault{evil.layer, evil.gid, evil.action});
  }
  rng.Fill(spec.seed.data(), spec.seed.size());
  ExitPlan plan;
  plan.layout = layout_;
  plan.trustees = trustees_.get();
  plan.commitments = std::move(epoch.commitments);
  spec.exit = std::move(plan);
  spec.intake_epoch = epoch.id;
  return spec;
}

void Round::ReleaseBlameEpoch(uint64_t intake_epoch) {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  blame_history_.erase(intake_epoch);
}

RoundResult Round::RunWithEvils(Rng& rng, std::span<const Evil> evils) {
  // The accepted submissions move into the engine — a round consumes its
  // intake epoch (ciphertexts, commitments, blame submissions) whether it
  // completes or aborts, so resubmit-and-run always starts clean. The
  // engine runs mixing and the exit phase and hands back the RoundResult.
  RoundEngine engine(&ThreadPool::Shared());
  EngineRound spec = TakeEngineRound(evils, rng);
  const uint64_t epoch = spec.intake_epoch;
  RoundResult result = engine.RunToCompletion(std::move(spec)).round;
  if (!result.aborted) {
    // Blame data only matters for disrupted rounds.
    ReleaseBlameEpoch(epoch);
  }
  return result;
}

Scalar Round::GroupSecret(uint32_t gid) const {
  const DkgResult& dkg = groups_[gid]->dkg();
  std::vector<Share> shares;
  shares.reserve(dkg.pub.params.threshold);
  for (size_t i = 0; i < dkg.pub.params.threshold; i++) {
    shares.push_back(Share{dkg.keys[i].index, dkg.keys[i].share});
  }
  auto secret = ShamirReconstruct(shares, dkg.pub.params.threshold);
  ATOM_CHECK(secret.has_value());
  return *secret;
}

BlameResult Round::BlameEntryGroup(uint32_t gid) {
  ATOM_CHECK(gid < groups_.size());
  // Once an epoch has been drained, blame always targets the batch that
  // ran — submissions accepted afterwards must not mask a disrupted
  // round's cheater. Before the first drain, inspect the pending batch.
  // Copies come out under one lock acquisition (a concurrent drain could
  // prune an epoch id between two acquisitions); RunBlame reveals the
  // entry key and decrypts every pair, too slow to hold any lock across.
  std::vector<TrapSubmission> submissions;
  bool have_epoch = false;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (!blame_history_.empty()) {
      submissions = blame_history_.rbegin()->second[gid];
      have_epoch = true;
    }
  }
  if (!have_epoch) {
    IntakeShard& shard = *intake_[gid];
    std::lock_guard<std::mutex> lock(shard.mu);
    submissions = shard.submissions;
  }
  return RunBlame(GroupSecret(gid), submissions, layout_);
}

BlameResult Round::BlameEntryGroup(uint32_t gid, uint64_t intake_epoch) {
  ATOM_CHECK(gid < groups_.size());
  std::vector<TrapSubmission> submissions;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    auto it = blame_history_.find(intake_epoch);
    ATOM_CHECK_MSG(it != blame_history_.end(),
                   "intake epoch %llu not retained (only the last %zu "
                   "drained epochs keep blame data)",
                   static_cast<unsigned long long>(intake_epoch),
                   Round::kBlameHistoryEpochs);
    submissions = it->second[gid];  // copy: a concurrent drain may prune
  }
  return RunBlame(GroupSecret(gid), submissions, layout_);
}

void Round::EscrowAllShares(Rng& rng) {
  const size_t k = config_.params.group_size;
  const size_t buddy_threshold = k / 2 + 1;
  escrows_.assign(groups_.size(), {});
  for (uint32_t g = 0; g < groups_.size(); g++) {
    escrows_[g].reserve(k);
    for (const DkgServerKey& key : groups_[g]->dkg().keys) {
      // Buddy group = next group in gid order (the paper suggests one or
      // more buddies per group; one suffices for recovery coverage).
      escrows_[g].push_back(EscrowShare(key, k, buddy_threshold, rng));
    }
  }
}

bool Round::RecoverServer(uint32_t gid, uint32_t server_index) {
  if (escrows_.empty() || gid >= groups_.size() || server_index == 0 ||
      server_index > config_.params.group_size) {
    return false;
  }
  const BuddyEscrow& escrow = escrows_[gid][server_index - 1];
  // Any buddy_threshold sub-shares reconstruct; take the first ones (in a
  // deployment: whichever buddy servers respond).
  auto recovered = RecoverShare(
      groups_[gid]->dkg().pub, server_index,
      std::span(escrow.sub_shares).subspan(0, escrow.threshold),
      escrow.threshold);
  if (!recovered.has_value()) {
    return false;
  }
  groups_[gid]->Restore(*recovered);
  return true;
}

}  // namespace atom
