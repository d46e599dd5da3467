#include "src/core/group_runtime.h"

#include <chrono>
#include <iterator>

#include "src/util/parallel.h"

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
  auto reject = [&](const char* what, uint32_t server) {
    result.aborted = true;
    result.abort_reason = std::string(what) + " proof rejected (server " +
                          std::to_string(server) + ")";
    return std::move(result);
  };

  // ---- Phase 1: shuffle chain, every step checked (NIZK).
  CiphertextBatch batch = input;
  for (uint32_t s : subset) {
    auto t0 = Clock::now();
    ShuffleStepResult step = ShuffleStep(pk_table(), batch, variant, rng,
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
    if (variant == Variant::kNizk) {
      auto t1 = Clock::now();
      bool ok = CheckShuffleStep(pk(), batch, out, &*step.proof, workers);
      result.stats.verify_seconds += SecondsSince(t1);
      if (!ok) {
        return reject("shuffle", s);
      }
    }
    batch = std::move(out);
  }

  // ---- Phase 2: divide into β contiguous sub-batches.
  std::vector<CiphertextBatch> batches =
      DivideBatch(std::move(batch), next_pks.empty() ? 1 : next_pks.size());

  // ---- Phase 3: decrypt-and-reencrypt chain, every step checked (NIZK).
  const auto tables =
      RewrapTables(next_pks, batches, subset.size(), next_tables);
  for (uint32_t s : subset) {
    Scalar weighted = WeightedShare(dkg_.keys[s - 1], subset);
    Point weighted_pub = WeightedSharePublic(dkg_.pub, s, subset);
    auto t0 = Clock::now();
    ReEncStepResult step = ReEncStep(weighted, weighted_pub, batches,
                                     next_pks, tables, variant, rng, workers);
    result.stats.reenc_seconds += SecondsSince(t0);
    if (evil_here(MaliciousAction::Kind::kTamperDuringReEnc, s)) {
      CiphertextBatch& out = step.outputs[0];
      Maul(&out[evil->target_message % out.size()][0]);
    }
    if (variant == Variant::kNizk) {
      auto t1 = Clock::now();
      bool ok = CheckReEncStep(weighted_pub, batches, step.outputs, next_pks,
                               step.proofs);
      result.stats.verify_seconds += SecondsSince(t1);
      if (!ok) {
        return reject("reencryption", s);
      }
    }
    batches = std::move(step.outputs);
  }
  FinalizeHop(batches);
  result.batches = std::move(batches);
  return result;
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
  const size_t base = batch.size() / beta, extra = batch.size() % beta;
  auto next = std::make_move_iterator(batch.begin());
  for (size_t b = 0; b < beta; b++) {
    auto take = static_cast<ptrdiff_t>(base + (b < extra ? 1 : 0));
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
  ReEncStepResult result;
  result.outputs.resize(inputs.size());
  // Every component's witness and proof commitments, in (sub-batch,
  // message, component) order.
  std::vector<ReEncWitness> witnesses;
  std::vector<ReEncProof> commitments;
  for (size_t b = 0; b < inputs.size(); b++) {
    const Point* next = next_pks.empty() ? nullptr : &next_pks[b];
    const FixedBaseTable* table = next_pks.empty() ? nullptr : tables[b].get();
    const CiphertextBatch& sub = inputs[b];
    CiphertextBatch& out = result.outputs[b];

    // Pre-draw randomness serially, then reencrypt in parallel: the
    // sub-batch's rewraps (one per component; drawn at the exit layer too,
    // where they go unused), then (NIZK) each proof's kx and kr. This Rng
    // order fixes the seeded output.
    const size_t first = witnesses.size();
    std::vector<size_t> offsets(sub.size());
    for (size_t m = 0; m < sub.size(); m++) {
      offsets[m] = witnesses.size();
      for (size_t c = 0; c < sub[m].size(); c++) {
        const Scalar rewrap = Scalar::Random(rng);
        witnesses.emplace_back().rewrap =
            next != nullptr ? rewrap : Scalar::Zero();
      }
    }
    if (nizk) {
      for (size_t i = first; i < witnesses.size(); i++) {
        witnesses[i].kx = Scalar::Random(rng);
        witnesses[i].kr = Scalar::Random(rng);
      }
      commitments.resize(witnesses.size());
    }
    out.resize(sub.size());
    ParallelFor(workers, sub.size(), [&](size_t m) {
      // Appendix A ReEnc with the pre-drawn randomness, so the parallel
      // part shares no Rng. NIZK: the decryption share x·Y and the proof's
      // kx·Y come from one table of Y.
      const size_t l = sub[m].size();
      const ReEncWitness* w = witnesses.data() + offsets[m];
      out[m] = sub[m];
      std::vector<Point> ys(l), share_y(l), kx_y(l);
      for (size_t c = 0; c < l; c++) {
        ElGamalCiphertext& cur = out[m][c];
        if (cur.YIsNull()) {
          cur.y = cur.r;
          cur.r = Point::Infinity();
        }
        ys[c] = cur.y;
      }
      if (nizk) {
        std::vector<Scalar> shares(l, share), kxs(l);
        for (size_t c = 0; c < l; c++) {
          kxs[c] = w[c].kx;
        }
        MulPairs(ys, shares, kxs, share_y, kx_y);
      } else {
        for (size_t c = 0; c < l; c++) {
          share_y[c] = ys[c].Mul(share);
        }
      }
      for (size_t c = 0; c < l; c++) {
        ElGamalCiphertext& cur = out[m][c];
        cur.c = cur.c - share_y[c];
        if (next != nullptr) {
          cur.r = cur.r + Point::BaseMul(w[c].rewrap);
          cur.c = cur.c + (table != nullptr ? table->Mul(w[c].rewrap)
                                            : next->Mul(w[c].rewrap));
        }
        if (nizk) {
          commitments[offsets[m] + c] =
              CommitReEncProof(w[c], kx_y[c], next, table);
        }
      }
    });
  }

  if (nizk) {
    std::vector<ReEncClaim> claims;
    claims.reserve(commitments.size());
    for (size_t b = 0; b < inputs.size(); b++) {
      const Point* next = next_pks.empty() ? nullptr : &next_pks[b];
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
  const size_t beta = next_pks.empty() ? 1 : next_pks.size();
  if (inputs.size() != beta || outputs.size() != beta) {
    return false;
  }
  std::vector<ReEncClaim> claims;
  claims.reserve(proofs.size());
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
        if (claims.size() == proofs.size()) {
          return false;
        }
        claims.push_back(ReEncClaim{next, inputs[b][m][c], outputs[b][m][c],
                                    proofs[claims.size()]});
      }
    }
  }
  return claims.size() == proofs.size() &&
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
