#include "src/crypto/shuffle.h"

#include <mutex>

#include "src/crypto/transcript.h"
#include "src/util/parallel.h"
#include "src/util/serde.h"

namespace atom {
namespace {

// ------------------------------------------------------------- generators

// Pedersen generator cache: H (chain base) plus H[0..n). All derived via
// hash-to-point, so no discrete-log relation between any of them (or G) is
// known to anyone.
class ShuffleGens {
 public:
  static ShuffleGens& Instance() {
    static ShuffleGens gens;
    return gens;
  }

  Point ChainBase() {
    std::lock_guard<std::mutex> lock(mu_);
    return chain_base_;
  }

  std::vector<Point> FirstN(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    while (hs_.size() < n) {
      ByteWriter label;
      label.Raw(ToBytes("atom/shuffle-gen"));
      label.U32(static_cast<uint32_t>(hs_.size()));
      hs_.push_back(HashToPoint(BytesView(label.bytes())));
    }
    return std::vector<Point>(hs_.begin(),
                              hs_.begin() + static_cast<ptrdiff_t>(n));
  }

 private:
  ShuffleGens() : chain_base_(HashToPoint(BytesView(ToBytes(
                      "atom/shuffle-chain-base")))) {}

  std::mutex mu_;
  Point chain_base_;
  std::vector<Point> hs_;
};

Bytes EncodeBatch(const CiphertextBatch& batch) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(batch.size()));
  for (const auto& vec : batch) {
    w.Raw(BytesView(EncodeCiphertextVec(vec)));
  }
  return w.Take();
}

// Derives the per-element challenges u[j] (Fiat-Shamir round 1): everything
// up to and including the permutation commitments is hashed, and the digest
// seeds a deterministic scalar stream.
std::vector<Scalar> DeriveU(Transcript& t, size_t n) {
  auto seed = t.ChallengeBytes("u-seed");
  Rng stream{BytesView(seed.data(), seed.size())};
  std::vector<Scalar> u;
  u.reserve(n);
  for (size_t j = 0; j < n; j++) {
    u.push_back(Scalar::Random(stream));
  }
  return u;
}

// MSM split across workers.
Point ParallelMsm(std::span<const Point> points, std::span<const Scalar> scalars,
                  size_t workers) {
  if (workers <= 1 || points.size() < 64) {
    return MultiScalarMul(points, scalars);
  }
  size_t chunks = workers;
  size_t chunk_size = (points.size() + chunks - 1) / chunks;
  std::vector<Point> partial(chunks, Point::Infinity());
  ParallelFor(workers, chunks, [&](size_t w) {
    size_t lo = w * chunk_size;
    size_t hi = std::min(points.size(), lo + chunk_size);
    if (lo < hi) {
      partial[w] = MultiScalarMul(points.subspan(lo, hi - lo),
                                  scalars.subspan(lo, hi - lo));
    }
  });
  Point acc = Point::Infinity();
  for (const Point& p : partial) {
    acc = acc + p;
  }
  return acc;
}

struct BatchShape {
  size_t n = 0;  // messages
  size_t l = 0;  // components per message
};

// Validates the batch is rectangular with Y = ⊥ everywhere.
std::optional<BatchShape> ShapeOf(const CiphertextBatch& batch) {
  if (batch.empty() || batch[0].empty()) {
    return std::nullopt;
  }
  BatchShape shape{batch.size(), batch[0].size()};
  for (const auto& vec : batch) {
    if (vec.size() != shape.l) {
      return std::nullopt;
    }
    for (const auto& ct : vec) {
      if (!ct.YIsNull()) {
        return std::nullopt;
      }
    }
  }
  return shape;
}

}  // namespace

// ---------------------------------------------------------- plain shuffle

std::vector<uint32_t> RandomPermutation(size_t n, Rng& rng) {
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; i++) {
    perm[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = n; i > 1; i--) {
    size_t j = rng.NextBelow(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

namespace {

// Past ~10 multiplications by the same base, building a FixedBaseTable is
// cheaper than the generic Muls it replaces (build ≈ 960 mixed adds + one
// inversion ≈ 10 windowed Muls). 16 adds slack for the estimate's noise.
constexpr size_t kTableBuildThreshold = 16;

// Shared body: `pk_table` may be null (generic multiplication).
CiphertextBatch ShuffleBatchImpl(const Point& pk,
                                 const FixedBaseTable* pk_table,
                                 const CiphertextBatch& input, Rng& rng,
                                 std::vector<uint32_t>* perm_out,
                                 std::vector<std::vector<Scalar>>* rands_out,
                                 size_t workers) {
  auto shape = ShapeOf(input);
  ATOM_CHECK_MSG(shape.has_value(), "malformed batch passed to ShuffleBatch");
  const size_t n = shape->n, l = shape->l;

  std::vector<uint32_t> perm = RandomPermutation(n, rng);
  // Pre-draw all randomness serially (Rng is not thread-safe), then do the
  // point arithmetic in parallel.
  std::vector<std::vector<Scalar>> rands(n, std::vector<Scalar>(l));
  for (size_t i = 0; i < n; i++) {
    for (size_t c = 0; c < l; c++) {
      rands[i][c] = Scalar::Random(rng);
    }
  }

  CiphertextBatch output(n, ElGamalCiphertextVec(l));
  ParallelFor(workers, n, [&](size_t i) {
    for (size_t c = 0; c < l; c++) {
      const ElGamalCiphertext& in = input[perm[i]][c];
      const Scalar& r = rands[i][c];
      ElGamalCiphertext& out = output[i][c];
      out.r = in.r + Point::BaseMul(r);
      out.c = in.c + (pk_table != nullptr ? pk_table->Mul(r) : pk.Mul(r));
      out.y = Point::Infinity();
    }
  });

  if (perm_out != nullptr) {
    *perm_out = std::move(perm);
  }
  if (rands_out != nullptr) {
    *rands_out = std::move(rands);
  }
  return output;
}

}  // namespace

CiphertextBatch ShuffleBatch(const Point& pk, const CiphertextBatch& input,
                             Rng& rng, std::vector<uint32_t>* perm_out,
                             std::vector<std::vector<Scalar>>* rands_out,
                             size_t workers) {
  auto shape = ShapeOf(input);
  ATOM_CHECK_MSG(shape.has_value(), "malformed batch passed to ShuffleBatch");
  if (shape->n * shape->l >= kTableBuildThreshold) {
    FixedBaseTable table(pk);
    return ShuffleBatchImpl(pk, &table, input, rng, perm_out, rands_out,
                            workers);
  }
  return ShuffleBatchImpl(pk, nullptr, input, rng, perm_out, rands_out,
                          workers);
}

CiphertextBatch ShuffleBatch(const FixedBaseTable& pk,
                             const CiphertextBatch& input, Rng& rng,
                             std::vector<uint32_t>* perm_out,
                             std::vector<std::vector<Scalar>>* rands_out,
                             size_t workers) {
  return ShuffleBatchImpl(pk.base(), &pk, input, rng, perm_out, rands_out,
                          workers);
}

// -------------------------------------------------------- proof encoding

Bytes ShuffleProof::Encode() const {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(perm_commit.size()));
  w.U32(static_cast<uint32_t>(t4a.size()));
  auto put_points = [&w](const std::vector<Point>& ps) {
    w.Raw(BytesView(EncodePoints(ps)));  // one inversion per vector
  };
  auto put_scalars = [&w](const std::vector<Scalar>& ss) {
    for (const Scalar& s : ss) {
      auto b = s.ToBytes();
      w.Raw(BytesView(b.data(), b.size()));
    }
  };
  put_points(perm_commit);
  put_points(chain_commit);
  put_points({t1, t2, t3});
  put_points(t4a);
  put_points(t4b);
  put_points(t_hat);
  put_scalars({s1, s2, s3});
  put_scalars(s4);
  put_scalars(s_hat);
  put_scalars(s_prime);
  return w.Take();
}

std::optional<ShuffleProof> ShuffleProof::Decode(BytesView bytes) {
  ByteReader r(bytes);
  auto n = r.U32();
  auto l = r.U32();
  if (!n || !l || *n == 0 || *l == 0 || *n > (1u << 24) || *l > (1u << 16)) {
    return std::nullopt;
  }
  // The proof stores > 2n points and > 2n scalars; a count beyond what the
  // buffer could possibly hold is malformed (and must not drive reserve()).
  if (*n > r.remaining() / (2 * Point::kEncodedSize + 64)) {
    return std::nullopt;
  }
  auto get_points = [&r](size_t count,
                         std::vector<Point>* out) -> bool {
    out->reserve(count);
    for (size_t i = 0; i < count; i++) {
      auto raw = r.Raw(Point::kEncodedSize);
      if (!raw) {
        return false;
      }
      auto p = Point::Decode(BytesView(*raw));
      if (!p) {
        return false;
      }
      out->push_back(*p);
    }
    return true;
  };
  auto get_scalars = [&r](size_t count,
                          std::vector<Scalar>* out) -> bool {
    out->reserve(count);
    for (size_t i = 0; i < count; i++) {
      auto raw = r.Raw(32);
      if (!raw) {
        return false;
      }
      auto s = Scalar::FromBytes(BytesView(*raw));
      if (!s) {
        return false;
      }
      out->push_back(*s);
    }
    return true;
  };

  ShuffleProof proof;
  std::vector<Point> t123;
  std::vector<Scalar> s123;
  if (!get_points(*n, &proof.perm_commit) ||
      !get_points(*n, &proof.chain_commit) || !get_points(3, &t123) ||
      !get_points(*l, &proof.t4a) || !get_points(*l, &proof.t4b) ||
      !get_points(*n, &proof.t_hat) || !get_scalars(3, &s123) ||
      !get_scalars(*l, &proof.s4) || !get_scalars(*n, &proof.s_hat) ||
      !get_scalars(*n, &proof.s_prime) || !r.Done()) {
    return std::nullopt;
  }
  proof.t1 = t123[0];
  proof.t2 = t123[1];
  proof.t3 = t123[2];
  proof.s1 = s123[0];
  proof.s2 = s123[1];
  proof.s3 = s123[2];
  return proof;
}

// ------------------------------------------------------------------ prove

namespace {

ShuffleResult ShuffleAndProveImpl(const Point& pk,
                                  const FixedBaseTable* pk_table,
                                  const CiphertextBatch& input, Rng& rng,
                                  size_t workers) {
  auto shape = ShapeOf(input);
  ATOM_CHECK_MSG(shape.has_value(), "malformed batch passed to ShuffleAndProve");
  const size_t n = shape->n, l = shape->l;

  std::vector<uint32_t> perm;
  std::vector<std::vector<Scalar>> rands;
  ShuffleResult result;
  result.output =
      ShuffleBatchImpl(pk, pk_table, input, rng, &perm, &rands, workers);

  Point chain_base = ShuffleGens::Instance().ChainBase();
  std::vector<Point> hs = ShuffleGens::Instance().FirstN(n);

  // Inverse permutation: inv[j] = i with perm[i] = j.
  std::vector<uint32_t> inv(n);
  for (size_t i = 0; i < n; i++) {
    inv[perm[i]] = static_cast<uint32_t>(i);
  }

  // Permutation commitments c[j] = r[j]·G + H[inv[j]].
  std::vector<Scalar> cr(n);
  for (size_t j = 0; j < n; j++) {
    cr[j] = Scalar::Random(rng);
  }
  ShuffleProof& proof = result.proof;
  proof.perm_commit.resize(n);
  ParallelFor(workers, n, [&](size_t j) {
    proof.perm_commit[j] = Point::BaseMul(cr[j]) + hs[inv[j]];
  });

  // Fiat-Shamir round 1: derive u[j].
  Transcript transcript("atom/shuffle-proof/v1");
  transcript.AppendPoint("pk", pk);
  transcript.AppendU64("n", n);
  transcript.AppendU64("l", l);
  transcript.AppendBytes("input", BytesView(EncodeBatch(input)));
  transcript.AppendBytes("output", BytesView(EncodeBatch(result.output)));
  transcript.AppendBytes("perm-commit",
                         BytesView(EncodePoints(proof.perm_commit)));
  std::vector<Scalar> u = DeriveU(transcript, n);
  std::vector<Scalar> u_perm(n);  // u'[i] = u[perm[i]]
  for (size_t i = 0; i < n; i++) {
    u_perm[i] = u[perm[i]];
  }

  // Commitment chain ĉ[i] = r̂[i]·G + u'[i]·ĉ[i-1] (sequential by design).
  std::vector<Scalar> rhat(n);
  for (size_t i = 0; i < n; i++) {
    rhat[i] = Scalar::Random(rng);
  }
  proof.chain_commit.resize(n);
  Point prev = chain_base;
  for (size_t i = 0; i < n; i++) {
    proof.chain_commit[i] = Point::BaseMul(rhat[i]) + prev.Mul(u_perm[i]);
    prev = proof.chain_commit[i];
  }

  // Aggregate witnesses.
  Scalar r_bar = Scalar::Zero();   // Σ r[j]
  Scalar r_tilde = Scalar::Zero(); // Σ u[j]·r[j]
  for (size_t j = 0; j < n; j++) {
    r_bar = r_bar + cr[j];
    r_tilde = r_tilde + u[j] * cr[j];
  }
  std::vector<Scalar> r_prime(l, Scalar::Zero());  // Σ u'[i]·r̃[i][c]
  for (size_t i = 0; i < n; i++) {
    for (size_t c = 0; c < l; c++) {
      r_prime[c] = r_prime[c] + u_perm[i] * rands[i][c];
    }
  }
  // Chain aggregate: R[i] = r̂[i] + u'[i]·R[i-1]; r̂ = R[n-1].
  Scalar chain_r = Scalar::Zero();
  for (size_t i = 0; i < n; i++) {
    chain_r = rhat[i] + u_perm[i] * chain_r;
  }

  // Sigma commitments.
  Scalar w1 = Scalar::Random(rng);
  Scalar w2 = Scalar::Random(rng);
  Scalar w3 = Scalar::Random(rng);
  std::vector<Scalar> w4(l);
  for (size_t c = 0; c < l; c++) {
    w4[c] = Scalar::Random(rng);
  }
  std::vector<Scalar> w_hat(n), w_prime(n);
  for (size_t i = 0; i < n; i++) {
    w_hat[i] = Scalar::Random(rng);
    w_prime[i] = Scalar::Random(rng);
  }

  proof.t1 = Point::BaseMul(w1);
  proof.t2 = Point::BaseMul(w2);
  proof.t3 = Point::BaseMul(w3) + ParallelMsm(hs, w_prime, workers);
  proof.t4a.resize(l);
  proof.t4b.resize(l);
  {
    // Per component: t4a = Σ ω'[i]·ẽ[i].r - ω4·G, t4b likewise with .c / pk.
    std::vector<Point> col(n);
    for (size_t c = 0; c < l; c++) {
      for (size_t i = 0; i < n; i++) {
        col[i] = result.output[i][c].r;
      }
      proof.t4a[c] =
          ParallelMsm(col, w_prime, workers) - Point::BaseMul(w4[c]);
      for (size_t i = 0; i < n; i++) {
        col[i] = result.output[i][c].c;
      }
      proof.t4b[c] = ParallelMsm(col, w_prime, workers) -
                     (pk_table != nullptr ? pk_table->Mul(w4[c])
                                          : pk.Mul(w4[c]));
    }
  }
  proof.t_hat.resize(n);
  ParallelFor(workers, n, [&](size_t i) {
    const Point& link = (i == 0) ? chain_base : proof.chain_commit[i - 1];
    proof.t_hat[i] = Point::BaseMul(w_hat[i]) + link.Mul(w_prime[i]);
  });

  // Fiat-Shamir round 2: the main challenge.
  {
    // Flatten every sigma commitment into one EncodePoints batch; the byte
    // order matches the per-point encoding this replaced.
    std::vector<Point> flat;
    flat.reserve(2 * n + 2 * l + 3);
    flat.insert(flat.end(), proof.chain_commit.begin(),
                proof.chain_commit.end());
    flat.insert(flat.end(), proof.t_hat.begin(), proof.t_hat.end());
    for (size_t c = 0; c < l; c++) {
      flat.push_back(proof.t4a[c]);
      flat.push_back(proof.t4b[c]);
    }
    flat.push_back(proof.t1);
    flat.push_back(proof.t2);
    flat.push_back(proof.t3);
    transcript.AppendBytes("commitments", BytesView(EncodePoints(flat)));
  }
  Scalar challenge = transcript.ChallengeScalar("c");

  // Responses.
  proof.s1 = w1 + challenge * r_bar;
  proof.s2 = w2 + challenge * chain_r;
  proof.s3 = w3 + challenge * r_tilde;
  proof.s4.resize(l);
  for (size_t c = 0; c < l; c++) {
    proof.s4[c] = w4[c] + challenge * r_prime[c];
  }
  proof.s_hat.resize(n);
  proof.s_prime.resize(n);
  for (size_t i = 0; i < n; i++) {
    proof.s_hat[i] = w_hat[i] + challenge * rhat[i];
    proof.s_prime[i] = w_prime[i] + challenge * u_perm[i];
  }
  return result;
}

}  // namespace

ShuffleResult ShuffleAndProve(const Point& pk, const CiphertextBatch& input,
                              Rng& rng, size_t workers) {
  auto shape = ShapeOf(input);
  ATOM_CHECK_MSG(shape.has_value(), "malformed batch passed to ShuffleAndProve");
  if (shape->n * shape->l >= kTableBuildThreshold) {
    FixedBaseTable table(pk);
    return ShuffleAndProveImpl(pk, &table, input, rng, workers);
  }
  return ShuffleAndProveImpl(pk, nullptr, input, rng, workers);
}

ShuffleResult ShuffleAndProve(const FixedBaseTable& pk,
                              const CiphertextBatch& input, Rng& rng,
                              size_t workers) {
  return ShuffleAndProveImpl(pk.base(), &pk, input, rng, workers);
}

// ----------------------------------------------------------------- verify

bool VerifyShuffle(const Point& pk, const CiphertextBatch& input,
                   const CiphertextBatch& output, const ShuffleProof& proof,
                   size_t workers) {
  auto in_shape = ShapeOf(input);
  auto out_shape = ShapeOf(output);
  if (!in_shape || !out_shape || in_shape->n != out_shape->n ||
      in_shape->l != out_shape->l) {
    return false;
  }
  const size_t n = in_shape->n, l = in_shape->l;
  if (proof.perm_commit.size() != n || proof.chain_commit.size() != n ||
      proof.t_hat.size() != n || proof.s_hat.size() != n ||
      proof.s_prime.size() != n || proof.t4a.size() != l ||
      proof.t4b.size() != l || proof.s4.size() != l) {
    return false;
  }

  Point chain_base = ShuffleGens::Instance().ChainBase();
  std::vector<Point> hs = ShuffleGens::Instance().FirstN(n);

  // Recompute both Fiat-Shamir challenges.
  Transcript transcript("atom/shuffle-proof/v1");
  transcript.AppendPoint("pk", pk);
  transcript.AppendU64("n", n);
  transcript.AppendU64("l", l);
  transcript.AppendBytes("input", BytesView(EncodeBatch(input)));
  transcript.AppendBytes("output", BytesView(EncodeBatch(output)));
  transcript.AppendBytes("perm-commit",
                         BytesView(EncodePoints(proof.perm_commit)));
  std::vector<Scalar> u = DeriveU(transcript, n);
  {
    // Flatten every sigma commitment into one EncodePoints batch; the byte
    // order matches the per-point encoding this replaced.
    std::vector<Point> flat;
    flat.reserve(2 * n + 2 * l + 3);
    flat.insert(flat.end(), proof.chain_commit.begin(),
                proof.chain_commit.end());
    flat.insert(flat.end(), proof.t_hat.begin(), proof.t_hat.end());
    for (size_t c = 0; c < l; c++) {
      flat.push_back(proof.t4a[c]);
      flat.push_back(proof.t4b[c]);
    }
    flat.push_back(proof.t1);
    flat.push_back(proof.t2);
    flat.push_back(proof.t3);
    transcript.AppendBytes("commitments", BytesView(EncodePoints(flat)));
  }
  Scalar challenge = transcript.ChallengeScalar("c");

  // Batch weights, one per equation, from the transcript continued over
  // every response: a prover who could predict them could cancel an error
  // in one equation against an error in another.
  transcript.AppendScalar("s1", proof.s1);
  transcript.AppendScalar("s2", proof.s2);
  transcript.AppendScalar("s3", proof.s3);
  for (const auto* responses : {&proof.s4, &proof.s_hat, &proof.s_prime}) {
    for (const Scalar& s : *responses) {
      transcript.AppendScalar("s", s);
    }
  }
  auto seed = transcript.ChallengeBytes("batch-weights");
  Rng stream{BytesView(seed.data(), seed.size())};
  auto draw = [&stream](size_t count) {
    std::vector<Scalar> w(count);
    for (Scalar& x : w) {
      x = Scalar::Random(stream);
    }
    return w;
  };
  const Scalar w1 = Scalar::Random(stream);
  const Scalar w2 = Scalar::Random(stream);
  const Scalar w3 = Scalar::Random(stream);
  const std::vector<Scalar> w4a = draw(l), w4b = draw(l), w_hat = draw(n);

  // The equations, G terms on the left (H = chain base, ĉ[-1] = H):
  //   REL1   s1·G = t1 + c·Σc[j] - c·ΣH[i]
  //   REL2   s2·G = t2 + c·ĉ[n-1] - (c·Πu[j])·H
  //   REL3   s3·G = t3 + c·Σu[j]·c[j] - Σs'[i]·H[i]
  //   REL4a -s4·G = t4a + c·Σu[j]·e[j].r - Σs'[i]·ẽ[i].r   (per component)
  //   REL4b    0  = t4b + c·Σu[j]·e[j].c - Σs'[i]·ẽ[i].c + s4·pk
  //   chain ŝ[i]·G = t̂[i] + c·ĉ[i] - s'[i]·ĉ[i-1]
  // Their weighted sum is one BaseMul against one MSM over
  // 4n + 4ln + 2l + 5 points.
  Scalar g_scalar = w1 * proof.s1 + w2 * proof.s2 + w3 * proof.s3;
  Scalar pk_scalar = Scalar::Zero();
  for (size_t c = 0; c < l; c++) {
    g_scalar = g_scalar - w4a[c] * proof.s4[c];
    pk_scalar = pk_scalar + w4b[c] * proof.s4[c];
  }
  Scalar u_product = Scalar::One();
  std::vector<Scalar> cu(n);  // c·u[j]
  for (size_t j = 0; j < n; j++) {
    u_product = u_product * u[j];
    cu[j] = challenge * u[j];
  }

  const size_t total = 4 * n + 4 * l * n + 2 * l + 5;
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  points.reserve(total);
  scalars.reserve(total);
  auto add = [&](const Point& p, const Scalar& s) {
    points.push_back(p);
    scalars.push_back(s);
  };
  add(proof.t1, w1);
  add(proof.t2, w2);
  add(proof.t3, w3);
  add(chain_base, (w2 * challenge * u_product + w_hat[0] * proof.s_prime[0])
                      .Neg());
  add(pk, pk_scalar);
  for (size_t c = 0; c < l; c++) {
    add(proof.t4a[c], w4a[c]);
    add(proof.t4b[c], w4b[c]);
  }
  const Scalar w1c = w1 * challenge;
  for (size_t i = 0; i < n; i++) {
    g_scalar = g_scalar + w_hat[i] * proof.s_hat[i];
    add(proof.perm_commit[i], w1c + w3 * cu[i]);
    add(hs[i], (w1c + w3 * proof.s_prime[i]).Neg());
    add(proof.t_hat[i], w_hat[i]);
    Scalar chain_scalar = w_hat[i] * challenge;
    if (i + 1 < n) {
      chain_scalar = chain_scalar - w_hat[i + 1] * proof.s_prime[i + 1];
    } else {
      chain_scalar = chain_scalar + w2 * challenge;
    }
    add(proof.chain_commit[i], chain_scalar);
  }
  for (size_t c = 0; c < l; c++) {
    for (size_t i = 0; i < n; i++) {
      add(input[i][c].r, w4a[c] * cu[i]);
      add(input[i][c].c, w4b[c] * cu[i]);
      add(output[i][c].r, (w4a[c] * proof.s_prime[i]).Neg());
      add(output[i][c].c, (w4b[c] * proof.s_prime[i]).Neg());
    }
  }
  return Point::BaseMul(g_scalar) == ParallelMsm(points, scalars, workers);
}

}  // namespace atom
