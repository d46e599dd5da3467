#include "src/core/group_runtime.h"

#include <chrono>

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

  // ---- Phase 1: shuffle chain (Algorithm 1/2, step 1).
  CiphertextBatch batch = input;
  for (uint32_t s : subset) {
    if (variant == Variant::kNizk) {
      auto t0 = Clock::now();
      ShuffleResult shuffled = ShuffleAndProve(pk_table(), batch, rng, workers);
      result.stats.shuffle_seconds += SecondsSince(t0);

      if (evil_here(MaliciousAction::Kind::kTamperDuringShuffle, s)) {
        Maul(&shuffled.output[evil->target_message % shuffled.output.size()][0]);
      }
      if (evil_here(MaliciousAction::Kind::kDuplicateDuringShuffle, s)) {
        size_t t = evil->target_message % shuffled.output.size();
        shuffled.output[t] = shuffled.output[(t + 1) % shuffled.output.size()];
      }

      auto t1 = Clock::now();
      bool ok = VerifyShuffle(pk(), batch, shuffled.output, shuffled.proof,
                              workers);
      result.stats.verify_seconds += SecondsSince(t1);
      if (!ok) {
        result.aborted = true;
        result.abort_reason = "shuffle proof rejected (server " +
                              std::to_string(s) + ")";
        return result;
      }
      batch = std::move(shuffled.output);
    } else {
      auto t0 = Clock::now();
      batch = ShuffleBatch(pk_table(), batch, rng, nullptr, nullptr, workers);
      result.stats.shuffle_seconds += SecondsSince(t0);
      if (evil_here(MaliciousAction::Kind::kTamperDuringShuffle, s)) {
        Maul(&batch[evil->target_message % batch.size()][0]);
      }
      if (evil_here(MaliciousAction::Kind::kDuplicateDuringShuffle, s)) {
        size_t t = evil->target_message % batch.size();
        batch[t] = batch[(t + 1) % batch.size()];
      }
    }
  }

  // ---- Phase 2: divide into β contiguous sub-batches.
  const size_t beta = next_pks.empty() ? 1 : next_pks.size();
  std::vector<CiphertextBatch> batches(beta);
  {
    size_t base = batch.size() / beta, extra = batch.size() % beta;
    size_t off = 0;
    for (size_t b = 0; b < beta; b++) {
      size_t take = base + (b < extra ? 1 : 0);
      batches[b].assign(batch.begin() + static_cast<ptrdiff_t>(off),
                        batch.begin() + static_cast<ptrdiff_t>(off + take));
      off += take;
    }
  }

  // ---- Phase 3: decrypt-and-reencrypt chain (step 3).
  // Each neighbour key is the rewrap base for its whole sub-batch on every
  // participating server (and for its proofs), so use a table per
  // neighbour: the caller's, or one built here when the reuse count
  // amortizes the build (~16 multiplications; see shuffle.cpp).
  const size_t components = input.empty() ? 0 : input[0].size();
  std::vector<std::shared_ptr<const FixedBaseTable>> tables(next_pks.size());
  for (size_t b = 0; b < next_pks.size(); b++) {
    if (!next_tables.empty() && next_tables[b] != nullptr) {
      ATOM_CHECK(next_tables[b]->base() == next_pks[b]);
      tables[b] = next_tables[b];
    } else if (batches[b].size() * components * subset.size() >= 16) {
      tables[b] = std::make_shared<const FixedBaseTable>(next_pks[b]);
      if (!next_tables.empty()) {
        next_tables[b] = tables[b];
      }
    }
  }
  for (size_t si = 0; si < subset.size(); si++) {
    uint32_t s = subset[si];
    Scalar weighted = WeightedShare(dkg_.keys[s - 1], subset);
    Point weighted_pub = WeightedSharePublic(dkg_.pub, s, subset);
    bool last_server = (si + 1 == subset.size());

    // This server's outputs for every sub-batch, and (NIZK) its proofs in
    // (sub-batch, message, component) order.
    std::vector<CiphertextBatch> outs(beta);
    std::vector<ReEncProof> proofs;
    for (size_t b = 0; b < beta; b++) {
      const Point* next = next_pks.empty() ? nullptr : &next_pks[b];
      const FixedBaseTable* next_table =
          next_pks.empty() ? nullptr : tables[b].get();
      const CiphertextBatch& sub = batches[b];
      CiphertextBatch& out = outs[b];

      // Pre-draw randomness serially, then reencrypt in parallel.
      auto t0 = Clock::now();
      std::vector<std::vector<Scalar>> rewrap(sub.size());
      std::vector<std::vector<Scalar>> draws(sub.size());
      for (size_t m = 0; m < sub.size(); m++) {
        draws[m].resize(sub[m].size());
        for (size_t c = 0; c < sub[m].size(); c++) {
          draws[m][c] = Scalar::Random(rng);
        }
      }
      out.resize(sub.size());
      ParallelFor(workers, sub.size(), [&](size_t m) {
        out[m].resize(sub[m].size());
        rewrap[m].resize(sub[m].size());
        for (size_t c = 0; c < sub[m].size(); c++) {
          // Deterministic ReEnc with pre-drawn randomness: inline the
          // Appendix-A operation so the parallel path has no shared Rng.
          ElGamalCiphertext cur = sub[m][c];
          if (cur.YIsNull()) {
            cur.y = cur.r;
            cur.r = Point::Infinity();
          }
          cur.c = cur.c - cur.y.Mul(weighted);
          if (next != nullptr) {
            cur.r = cur.r + Point::BaseMul(draws[m][c]);
            cur.c = cur.c + (next_table != nullptr
                                 ? next_table->Mul(draws[m][c])
                                 : next->Mul(draws[m][c]));
            rewrap[m][c] = draws[m][c];
          } else {
            rewrap[m][c] = Scalar::Zero();
          }
          out[m][c] = cur;
        }
      });
      result.stats.reenc_seconds += SecondsSince(t0);

      if (evil_here(MaliciousAction::Kind::kTamperDuringReEnc, s) && b == 0) {
        Maul(&out[evil->target_message % out.size()][0]);
      }

      if (variant == Variant::kNizk) {
        // Prove every component's reencryption; the Rng order (sub-batch by
        // sub-batch, rewrap draws before proofs) fixes the seeded output.
        auto t2 = Clock::now();
        for (size_t m = 0; m < sub.size(); m++) {
          for (size_t c = 0; c < sub[m].size(); c++) {
            proofs.push_back(MakeReEncProof(weighted, weighted_pub, next,
                                            sub[m][c], out[m][c],
                                            rewrap[m][c], rng, next_table));
          }
        }
        result.stats.verify_seconds += SecondsSince(t2);
      }
    }

    if (variant == Variant::kNizk) {
      // Check this server's step across all sub-batches in one batch test.
      auto t3 = Clock::now();
      std::vector<ReEncClaim> claims;
      claims.reserve(proofs.size());
      size_t k = 0;
      for (size_t b = 0; b < beta; b++) {
        const Point* next = next_pks.empty() ? nullptr : &next_pks[b];
        for (size_t m = 0; m < batches[b].size(); m++) {
          for (size_t c = 0; c < batches[b][m].size(); c++) {
            claims.push_back(ReEncClaim{next, batches[b][m][c],
                                        outs[b][m][c], proofs[k++]});
          }
        }
      }
      bool ok = VerifyReEncProofBatch(weighted_pub, claims);
      result.stats.verify_seconds += SecondsSince(t3);
      if (!ok) {
        result.aborted = true;
        result.abort_reason = "reencryption proof rejected (server " +
                              std::to_string(s) + ")";
        return result;
      }
    }

    for (size_t b = 0; b < beta; b++) {
      if (last_server) {
        for (auto& vec : outs[b]) {
          for (auto& ct : vec) {
            ct = ElGamalFinalizeHop(ct);
          }
        }
      }
      batches[b] = std::move(outs[b]);
    }
  }

  result.batches = std::move(batches);
  return result;
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
