#include "src/core/group_runtime.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "src/crypto/lanes.h"

namespace atom {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Tampers one ciphertext component in place (the malicious transformation:
// replace the payload with a related one, which is exactly what the NIZK /
// trap machinery must detect).
void Maul(ElGamalCiphertext* ct) {
  ct->c = ct->c + Point::Generator();
}

// Sub-batch b's size when DivideBatch splits n messages β ways: the first
// (n % β) sub-batches take one message more.
size_t SubBatchSize(size_t n, size_t beta, size_t b) {
  return n / beta + (b < n % beta ? 1 : 0);
}

using SubBatchView = std::span<const ElGamalCiphertextVec>;

std::vector<SubBatchView> Views(std::span<const CiphertextBatch> subs) {
  return {subs.begin(), subs.end()};
}

// The sub-batches DivideBatch would make of `batch`, as views into it.
std::vector<SubBatchView> SubBatchViews(const CiphertextBatch& batch,
                                        size_t beta) {
  std::vector<SubBatchView> views;
  views.reserve(beta);
  size_t offset = 0;
  for (size_t b = 0; b < beta; b++) {
    const size_t size = SubBatchSize(batch.size(), beta, b);
    views.push_back(SubBatchView(batch).subspan(offset, size));
    offset += size;
  }
  return views;
}

// One reencryption step's claims, in (sub-batch, message, component)
// order; false when inputs, outputs and proofs differ in shape.
bool StepClaims(std::span<const SubBatchView> inputs,
                std::span<const CiphertextBatch> outputs,
                std::span<const Point> next_pks,
                std::span<const ReEncProof> proofs,
                std::vector<ReEncClaim>* claims) {
  const size_t beta = next_pks.empty() ? 1 : next_pks.size();
  if (inputs.size() != beta || outputs.size() != beta) {
    return false;
  }
  claims->reserve(proofs.size());
  for (size_t b = 0; b < beta; b++) {
    const Point* next = next_pks.empty() ? nullptr : &next_pks[b];
    if (inputs[b].size() != outputs[b].size()) {
      return false;
    }
    for (size_t m = 0; m < inputs[b].size(); m++) {
      if (inputs[b][m].size() != outputs[b][m].size()) {
        return false;
      }
      for (size_t c = 0; c < inputs[b][m].size(); c++) {
        if (claims->size() == proofs.size()) {
          return false;
        }
        claims->push_back(ReEncClaim{next, inputs[b][m][c], outputs[b][m][c],
                                     proofs[claims->size()]});
      }
    }
  }
  return claims->size() == proofs.size();
}

// The abort reason of a hop whose combined check failed: the first step,
// in chain order, whose own check fails. `divided` is the first
// reencryption step's input.
std::string BlameHopStep(const Point& group_pk, const CiphertextBatch& input,
                         std::span<const CiphertextBatch> divided,
                         std::span<const Point> next_pks,
                         const HopProofs& hop, std::span<const uint32_t> subset,
                         size_t workers) {
  auto rejected = [&](const char* what, size_t s) {
    return std::string(what) + " proof rejected (server " +
           std::to_string(subset[s]) + ")";
  };
  for (size_t s = 0; s < subset.size(); s++) {
    if (!CheckShuffleStep(group_pk, s == 0 ? input : hop.shuffled[s - 1],
                          hop.shuffled[s], &hop.shuffle_proofs[s], workers)) {
      return rejected("shuffle", s);
    }
  }
  for (size_t s = 0; s < subset.size(); s++) {
    if (!CheckReEncStep(hop.share_pubs[s],
                        s == 0 ? divided : hop.reencrypted[s - 1],
                        hop.reencrypted[s], next_pks, hop.reenc_proofs[s])) {
      return rejected("reencryption", s);
    }
  }
  return "hop proofs rejected, though every step's own check passed";
}

}  // namespace

GroupRuntime::GroupRuntime(uint32_t gid, DkgResult dkg)
    : gid_(gid),
      dkg_(std::move(dkg)),
      pk_table_(std::make_shared<const FixedBaseTable>(dkg_.pub.group_pk)) {
  alive_.assign(dkg_.pub.params.k, true);
}

void GroupRuntime::MarkFailed(uint32_t server_index) {
  ATOM_CHECK(server_index >= 1 && server_index <= alive_.size());
  alive_[server_index - 1] = false;
}

size_t GroupRuntime::AliveCount() const {
  size_t n = 0;
  for (bool a : alive_) {
    n += a ? 1 : 0;
  }
  return n;
}

void GroupRuntime::Restore(const DkgServerKey& key) {
  ATOM_CHECK(key.index >= 1 && key.index <= alive_.size());
  // Only accept a key matching the DKG transcript.
  ATOM_CHECK(Point::BaseMul(key.share) == dkg_.pub.share_pks[key.index - 1]);
  dkg_.keys[key.index - 1] = key;
  alive_[key.index - 1] = true;
}

HopResult GroupRuntime::RunHop(const CiphertextBatch& input,
                               std::span<const Point> next_pks,
                               Variant variant, Rng& rng, size_t workers,
                               const MaliciousAction* evil,
                               std::span<std::shared_ptr<const FixedBaseTable>>
                                   next_tables) const {
  ATOM_CHECK(next_tables.empty() || next_tables.size() == next_pks.size());
  HopResult result;
  result.stats.messages = input.size();

  const size_t threshold = dkg_.pub.params.threshold;
  std::vector<uint32_t> subset;
  for (uint32_t i = 1; i <= alive_.size() && subset.size() < threshold; i++) {
    if (alive_[i - 1]) {
      subset.push_back(i);
    }
  }
  if (subset.size() < threshold) {
    result.aborted = true;
    result.abort_reason = "too few alive servers in group";
    return result;
  }
  result.stats.participants = subset.size();

  auto evil_here = [&](MaliciousAction::Kind kind, uint32_t server) {
    return evil != nullptr && evil->kind == kind &&
           evil->server_index == server;
  };
  const bool nizk = variant == Variant::kNizk;
  HopProofs proofs;

  // ---- Phase 1: shuffle chain.
  proofs.shuffled.reserve(subset.size());
  for (uint32_t s : subset) {
    const CiphertextBatch& in =
        proofs.shuffled.empty() ? input : proofs.shuffled.back();
    auto t0 = Clock::now();
    ShuffleStepResult step = ShuffleStep(pk_table(), in, variant, rng,
                                         workers);
    result.stats.shuffle_seconds += SecondsSince(t0);
    CiphertextBatch& out = step.output;
    if (evil_here(MaliciousAction::Kind::kTamperDuringShuffle, s)) {
      Maul(&out[evil->target_message % out.size()][0]);
    }
    if (evil_here(MaliciousAction::Kind::kDuplicateDuringShuffle, s)) {
      size_t t = evil->target_message % out.size();
      out[t] = out[(t + 1) % out.size()];
    }
    if (nizk) {
      proofs.shuffle_proofs.push_back(std::move(*step.proof));
    } else {
      proofs.shuffled.clear();  // only the NIZK check reads earlier steps
    }
    proofs.shuffled.push_back(std::move(out));
  }

  // ---- Phase 2: divide into β contiguous sub-batches. The NIZK check
  // reads the last shuffle output too; a trap hop hands it on.
  const std::vector<CiphertextBatch> divided = DivideBatch(
      nizk ? proofs.shuffled.back() : std::move(proofs.shuffled.back()),
      next_pks.empty() ? 1 : next_pks.size());

  // ---- Phase 3: decrypt-and-reencrypt chain.
  const auto tables =
      RewrapTables(next_pks, divided, subset.size(), next_tables);
  proofs.reencrypted.reserve(subset.size());
  for (uint32_t s : subset) {
    const std::vector<CiphertextBatch>& in =
        proofs.reencrypted.empty() ? divided : proofs.reencrypted.back();
    Scalar weighted = WeightedShare(dkg_.keys[s - 1], subset);
    Point weighted_pub = WeightedSharePublic(dkg_.pub, s, subset);
    auto t0 = Clock::now();
    ReEncStepResult step = ReEncStep(weighted, weighted_pub, in, next_pks,
                                     tables, variant, rng, workers);
    result.stats.reenc_seconds += SecondsSince(t0);
    if (evil_here(MaliciousAction::Kind::kTamperDuringReEnc, s)) {
      CiphertextBatch& out = step.outputs[0];
      Maul(&out[evil->target_message % out.size()][0]);
    }
    if (nizk) {
      proofs.share_pubs.push_back(weighted_pub);
      proofs.reenc_proofs.push_back(std::move(step.proofs));
    } else {
      proofs.reencrypted.clear();
    }
    proofs.reencrypted.push_back(std::move(step.outputs));
  }

  // ---- NIZK: every step's proofs in one check. Only when it fails are
  // the steps checked one by one, in chain order, to name the server.
  if (nizk) {
    auto t1 = Clock::now();
    std::optional<std::string> blame;
    if (!CheckHopProofs(pk(), input, next_pks, proofs, workers)) {
      blame = BlameHopStep(pk(), input, divided, next_pks, proofs, subset,
                           workers);
    }
    result.stats.verify_seconds += SecondsSince(t1);
    if (blame) {
      result.aborted = true;
      result.abort_reason = std::move(*blame);
      return result;
    }
  }
  result.batches = std::move(proofs.reencrypted.back());
  FinalizeHop(result.batches);
  return result;
}

bool CheckHopProofs(const Point& group_pk, const CiphertextBatch& input,
                    std::span<const Point> next_pks, const HopProofs& hop,
                    size_t workers) {
  const size_t k = hop.shuffled.size();
  if (k == 0 || hop.shuffle_proofs.size() != k ||
      hop.share_pubs.size() != k || hop.reencrypted.size() != k ||
      hop.reenc_proofs.size() != k) {
    return false;
  }
  std::vector<const CiphertextBatch*> batches = {&input};
  for (const CiphertextBatch& batch : hop.shuffled) {
    batches.push_back(&batch);
  }
  // The first reencryption step's claims read the last shuffle output
  // itself, split as DivideBatch splits it: its r points are the chain's
  // Y's, and they and its c points enter the check once.
  const size_t beta = next_pks.empty() ? 1 : next_pks.size();
  std::vector<std::vector<ReEncClaim>> claims(k);
  std::vector<std::span<const ReEncClaim>> steps;
  for (size_t s = 0; s < k; s++) {
    if (!StepClaims(s == 0 ? SubBatchViews(hop.shuffled.back(), beta)
                           : Views(hop.reencrypted[s - 1]),
                    hop.reencrypted[s], next_pks, hop.reenc_proofs[s],
                    &claims[s])) {
      return false;
    }
    steps.push_back(claims[s]);
  }
  auto shuffles =
      ShuffleChainCheck::Prepare(group_pk, batches, hop.shuffle_proofs);
  auto reencs = ReEncChainCheck::Prepare(hop.share_pubs, steps);
  if (!shuffles || !reencs) {
    return false;
  }
  std::vector<WeightSeed> seeds(shuffles->seeds().begin(),
                                shuffles->seeds().end());
  seeds.insert(seeds.end(), reencs->seeds().begin(), reencs->seeds().end());
  const std::vector<Scalar> outer = OuterWeights(seeds);
  MsmCheck check;
  check.Reserve(shuffles->MaxTerms() + reencs->MaxTerms());
  shuffles->AddTo(std::span(outer).first(k), check);
  reencs->AddTo(std::span(outer).subspan(k), check);
  return check.Holds(workers);
}

ShuffleStepResult ShuffleStep(const FixedBaseTable& group_pk,
                              const CiphertextBatch& input, Variant variant,
                              Rng& rng, size_t workers) {
  if (variant == Variant::kNizk) {
    ShuffleResult shuffled = ShuffleAndProve(group_pk, input, rng, workers);
    return {std::move(shuffled.output), std::move(shuffled.proof)};
  }
  return {ShuffleBatch(group_pk, input, rng, nullptr, nullptr, workers),
          std::nullopt};
}

bool CheckShuffleStep(const Point& group_pk, const CiphertextBatch& input,
                      const CiphertextBatch& output, const ShuffleProof* proof,
                      size_t workers) {
  return proof != nullptr &&
         VerifyShuffle(group_pk, input, output, *proof, workers);
}

std::vector<CiphertextBatch> DivideBatch(CiphertextBatch batch, size_t beta) {
  std::vector<CiphertextBatch> subs(beta);
  auto next = std::make_move_iterator(batch.begin());
  for (size_t b = 0; b < beta; b++) {
    auto take = static_cast<ptrdiff_t>(SubBatchSize(batch.size(), beta, b));
    subs[b].assign(next, next + take);
    next += take;
  }
  return subs;
}

std::vector<std::shared_ptr<const FixedBaseTable>> RewrapTables(
    std::span<const Point> next_pks, std::span<const CiphertextBatch> subs,
    size_t steps, std::span<std::shared_ptr<const FixedBaseTable>> cached) {
  ATOM_CHECK(cached.empty() || cached.size() == next_pks.size());
  ATOM_CHECK(next_pks.empty() || subs.size() == next_pks.size());
  // A table pays for itself from ~14 multiplications by its base; 16 is
  // shuffle.cpp's kTableBuildThreshold.
  std::vector<std::shared_ptr<const FixedBaseTable>> tables(next_pks.size());
  for (size_t b = 0; b < next_pks.size(); b++) {
    const size_t components = subs[b].empty() ? 0 : subs[b][0].size();
    if (!cached.empty() && cached[b] != nullptr) {
      ATOM_CHECK(cached[b]->base() == next_pks[b]);
      tables[b] = cached[b];
    } else if (subs[b].size() * components * steps >= 16) {
      tables[b] = std::make_shared<const FixedBaseTable>(next_pks[b]);
      if (!cached.empty()) {
        cached[b] = tables[b];
      }
    }
  }
  return tables;
}

ReEncStepResult ReEncStep(
    const Scalar& share, const Point& share_pub,
    std::span<const CiphertextBatch> inputs, std::span<const Point> next_pks,
    std::span<const std::shared_ptr<const FixedBaseTable>> tables,
    Variant variant, Rng& rng, size_t workers) {
  ATOM_CHECK(inputs.size() == (next_pks.empty() ? 1 : next_pks.size()));
  ATOM_CHECK(tables.size() == next_pks.size());
  const bool nizk = variant == Variant::kNizk;
  const bool rewrap = !next_pks.empty();
  ReEncStepResult result;
  result.outputs.resize(inputs.size());
  // Every component's witness, in (sub-batch, message, component) order,
  // drawn serially: each sub-batch's rewraps (one per component; drawn at
  // the exit layer too, where they go unused), then (NIZK) each proof's kx
  // and kr. This Rng order fixes the seeded output. sub_first[b] is
  // sub-batch b's first component.
  std::vector<ReEncWitness> witnesses;
  std::vector<size_t> sub_first(inputs.size() + 1);
  for (size_t b = 0; b < inputs.size(); b++) {
    sub_first[b] = witnesses.size();
    for (const ElGamalCiphertextVec& vec : inputs[b]) {
      for (size_t c = 0; c < vec.size(); c++) {
        const Scalar r = Scalar::Random(rng);
        witnesses.emplace_back().rewrap = rewrap ? r : Scalar::Zero();
      }
    }
    if (nizk) {
      for (size_t i = sub_first[b]; i < witnesses.size(); i++) {
        witnesses[i].kx = Scalar::Random(rng);
        witnesses[i].kr = Scalar::Random(rng);
      }
    }
  }
  const size_t total = witnesses.size();
  sub_first[inputs.size()] = total;

  // Appendix A ReEnc: normalize Y ← R, R ← identity where Y = ⊥, and
  // gather every component's Y.
  std::vector<Point> ys;
  ys.reserve(total);
  for (size_t b = 0; b < inputs.size(); b++) {
    result.outputs[b] = inputs[b];
    for (ElGamalCiphertextVec& vec : result.outputs[b]) {
      for (ElGamalCiphertext& cur : vec) {
        if (cur.YIsNull()) {
          cur.y = cur.r;
          cur.r = Point::Infinity();
        }
        ys.push_back(cur.y);
      }
    }
  }

  // The step's secret-scalar products, each gathered over every component
  // into one lane-kernel call: the decryption share x·Y (and the proof's
  // kx·Y from the same table of Y), then everything on G (rewrap r·G and
  // the proofs' kx·G, kr·G), then per next group N: r·N and kr·N.
  std::vector<Scalar> kxs, krs;
  if (nizk) {
    kxs.reserve(total);
    krs.reserve(total);
    for (const ReEncWitness& w : witnesses) {
      kxs.push_back(w.kx);
      krs.push_back(w.kr);
    }
  }
  std::vector<Point> share_y(total), kx_y(nizk ? total : 0);
  {
    std::vector<std::span<const Scalar>> columns{std::span(&share, 1)};
    std::vector<std::span<Point>> outs{share_y};
    if (nizk) {
      columns.push_back(kxs);
      outs.push_back(kx_y);
    }
    VariableBaseMul(ys, columns, outs, workers);
  }
  std::vector<Scalar> on_g;
  on_g.reserve(3 * total);
  if (rewrap) {
    for (const ReEncWitness& w : witnesses) {
      on_g.push_back(w.rewrap);
    }
  }
  on_g.insert(on_g.end(), kxs.begin(), kxs.end());
  on_g.insert(on_g.end(), krs.begin(), krs.end());
  std::vector<Point> g_products(on_g.size());
  FixedBaseMul(Point::GeneratorTable(), on_g, g_products, workers);
  const std::span<const Point> r_g(g_products.data(), rewrap ? total : 0);
  const std::span<const Point> kx_g(r_g.data() + r_g.size(), kxs.size());
  const std::span<const Point> kr_g(kx_g.data() + kx_g.size(), krs.size());
  // Per component: r·N, then (NIZK) kr·N.
  std::vector<Point> r_n(rewrap ? total : 0), kr_n(rewrap && nizk ? total : 0);
  for (size_t b = 0; rewrap && b < inputs.size(); b++) {
    const size_t lo = sub_first[b], count = sub_first[b + 1] - lo;
    std::vector<Scalar> on_n;
    on_n.reserve(2 * count);
    for (size_t i = lo; i < lo + count; i++) {
      on_n.push_back(witnesses[i].rewrap);
    }
    if (nizk) {
      on_n.insert(on_n.end(), krs.begin() + static_cast<ptrdiff_t>(lo),
                  krs.begin() + static_cast<ptrdiff_t>(lo + count));
    }
    std::vector<Point> n_products(on_n.size());
    SameBaseMul(next_pks[b], tables[b].get(), on_n, n_products, workers);
    std::copy_n(n_products.begin(), count,
                r_n.begin() + static_cast<ptrdiff_t>(lo));
    if (nizk) {
      std::copy_n(n_products.begin() + static_cast<ptrdiff_t>(count), count,
                  kr_n.begin() + static_cast<ptrdiff_t>(lo));
    }
  }

  std::vector<ReEncProof> commitments(nizk ? total : 0);
  size_t i = 0;
  for (CiphertextBatch& out : result.outputs) {
    for (ElGamalCiphertextVec& vec : out) {
      for (ElGamalCiphertext& cur : vec) {
        cur.c = cur.c - share_y[i];
        if (rewrap) {
          cur.r = cur.r + r_g[i];
          cur.c = cur.c + r_n[i];
        }
        if (nizk) {
          commitments[i] = CommitReEncProof(kx_g[i], kr_g[i], kx_y[i],
                                            rewrap ? &kr_n[i] : nullptr);
        }
        i++;
      }
    }
  }

  if (nizk) {
    std::vector<ReEncClaim> claims;
    claims.reserve(commitments.size());
    for (size_t b = 0; b < inputs.size(); b++) {
      const Point* next = rewrap ? &next_pks[b] : nullptr;
      for (size_t m = 0; m < inputs[b].size(); m++) {
        for (size_t c = 0; c < inputs[b][m].size(); c++) {
          claims.push_back(ReEncClaim{next, inputs[b][m][c],
                                      result.outputs[b][m][c],
                                      commitments[claims.size()]});
        }
      }
    }
    result.proofs = CompleteReEncProofs(share, share_pub, claims, witnesses);
  }
  return result;
}

bool CheckReEncStep(const Point& share_pub,
                    std::span<const CiphertextBatch> inputs,
                    std::span<const CiphertextBatch> outputs,
                    std::span<const Point> next_pks,
                    std::span<const ReEncProof> proofs) {
  std::vector<ReEncClaim> claims;
  return StepClaims(Views(inputs), outputs, next_pks, proofs, &claims) &&
         VerifyReEncProofBatch(share_pub, claims);
}

void FinalizeHop(std::vector<CiphertextBatch>& batches) {
  for (CiphertextBatch& batch : batches) {
    for (ElGamalCiphertextVec& vec : batch) {
      for (ElGamalCiphertext& ct : vec) {
        ct = ElGamalFinalizeHop(ct);
      }
    }
  }
}

std::optional<std::vector<std::vector<Point>>> ExitPlaintexts(
    const CiphertextBatch& exit_batch) {
  std::vector<std::vector<Point>> out;
  out.reserve(exit_batch.size());
  for (const auto& vec : exit_batch) {
    std::vector<Point> points;
    points.reserve(vec.size());
    for (const auto& ct : vec) {
      auto m = ElGamalDecrypt(Scalar::Zero(), ct);
      if (!m.has_value()) {
        return std::nullopt;
      }
      points.push_back(*m);
    }
    out.push_back(std::move(points));
  }
  return out;
}

}  // namespace atom
