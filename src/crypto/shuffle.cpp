#include "src/crypto/shuffle.h"

#include <mutex>

#include "src/crypto/lanes.h"
#include "src/crypto/msm_check.h"
#include "src/crypto/transcript.h"
#include "src/util/parallel.h"
#include "src/util/serde.h"

namespace atom {
namespace {

// ------------------------------------------------------------- generators

// The chain base H, and the fixed-base table the prover multiplies it
// with: immutable once built, like Point::GeneratorTable(). A verifier
// only needs the point; the table is built on the first proof.
const Point& ChainBase() {
  static const Point h =
      HashToPoint(BytesView(ToBytes("atom/shuffle-chain-base")));
  return h;
}

const FixedBaseTable& ChainBaseTable() {
  static const FixedBaseTable table(ChainBase());
  return table;
}

// Pedersen generator cache H[0..n), grown on demand. Like H, all derived
// via hash-to-point, so no discrete-log relation between any of them (or
// G) is known to anyone.
class ShuffleGens {
 public:
  static ShuffleGens& Instance() {
    static ShuffleGens gens;
    return gens;
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
  std::mutex mu_;
  std::vector<Point> hs_;
};

// One field inversion for the whole batch (EncodeCiphertextVecs).
Bytes EncodeBatch(const CiphertextBatch& batch) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(batch.size()));
  w.Raw(BytesView(EncodeCiphertextVecs(batch)));
  return w.Take();
}

// The statement and the permutation commitments, as prover and verifier
// hash them: `input` and `output` are EncodeBatch bytes.
Transcript StatementTranscript(const Point& pk, size_t n, size_t l,
                              BytesView input, BytesView output,
                              const std::vector<Point>& perm_commit) {
  Transcript t("atom/shuffle-proof/v1");
  t.AppendPoint("pk", pk);
  t.AppendU64("n", n);
  t.AppendU64("l", l);
  t.AppendBytes("input", input);
  t.AppendBytes("output", output);
  t.AppendBytes("perm-commit", BytesView(EncodePoints(perm_commit)));
  return t;
}

// Fiat-Shamir round 2's input: every sigma commitment in one EncodePoints
// batch, in the byte order of the per-point encoding this replaced.
void AppendCommitments(Transcript& t, const ShuffleProof& proof) {
  const size_t n = proof.chain_commit.size(), l = proof.t4a.size();
  std::vector<Point> flat;
  flat.reserve(2 * n + 2 * l + 3);
  flat.insert(flat.end(), proof.chain_commit.begin(), proof.chain_commit.end());
  flat.insert(flat.end(), proof.t_hat.begin(), proof.t_hat.end());
  for (size_t c = 0; c < l; c++) {
    flat.push_back(proof.t4a[c]);
    flat.push_back(proof.t4b[c]);
  }
  flat.push_back(proof.t1);
  flat.push_back(proof.t2);
  flat.push_back(proof.t3);
  t.AppendBytes("commitments", BytesView(EncodePoints(flat)));
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

bool IsShuffleInput(const CiphertextBatch& batch) {
  return ShapeOf(batch).has_value();
}

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

// From ~16 multiplications by the same base, building a FixedBaseTable
// (~31.2k field mul/sqr, about a millisecond) is cheaper than the
// portable variable-base lane products it replaces, each ~5x a fixed-base
// one. On IFMA, where a variable-base lane costs ~20 us, the build pays
// from ~50; the hop's shuffles use the group's cached table either way.
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

  // Every rerandomization's r·G and r·pk, in (message, component) order,
  // on the lane kernel.
  std::vector<Scalar> flat;
  flat.reserve(n * l);
  for (const std::vector<Scalar>& row : rands) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  std::vector<Point> on_g(n * l), on_pk(n * l);
  FixedBaseMul(Point::GeneratorTable(), flat, on_g, workers);
  SameBaseMul(pk, pk_table, flat, on_pk, workers);
  CiphertextBatch output(n, ElGamalCiphertextVec(l));
  ParallelFor(workers, n, [&](size_t i) {
    for (size_t c = 0; c < l; c++) {
      const ElGamalCiphertext& in = input[perm[i]][c];
      ElGamalCiphertext& out = output[i][c];
      out.r = in.r + on_g[i * l + c];
      out.c = in.c + on_pk[i * l + c];
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
  // The proof stores > 2n points and > 2n scalars, and 2l points and l
  // scalars; a count beyond what the buffer could possibly hold is
  // malformed (and must not drive reserve()).
  if (*n > r.remaining() / (2 * Point::kEncodedSize + 64) ||
      *l > r.remaining() / (2 * Point::kEncodedSize + 32)) {
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
  FixedBaseMul(Point::GeneratorTable(), cr, proof.perm_commit, workers);
  for (size_t j = 0; j < n; j++) {
    proof.perm_commit[j] = proof.perm_commit[j] + hs[inv[j]];
  }

  // Fiat-Shamir round 1: derive u[j].
  Transcript transcript = StatementTranscript(
      pk, n, l, BytesView(EncodeBatch(input)),
      BytesView(EncodeBatch(result.output)), proof.perm_commit);
  std::vector<Scalar> u = DeriveU(transcript, n);
  std::vector<Scalar> u_perm(n);  // u'[i] = u[perm[i]]
  for (size_t i = 0; i < n; i++) {
    u_perm[i] = u[perm[i]];
  }

  // Commitment chain ĉ[i] = r̂[i]·G + u'[i]·ĉ[i-1], ĉ[-1] = H. Unrolled,
  // ĉ[i] = R[i]·G + U[i]·H with R[i] = r̂[i] + u'[i]·R[i-1] (R[-1] = 0)
  // and U[i] = u'[0]···u'[i]: the scalar recurrences are sequential, the
  // points two fixed-base products each.
  std::vector<Scalar> rhat(n);
  for (size_t i = 0; i < n; i++) {
    rhat[i] = Scalar::Random(rng);
  }
  std::vector<Scalar> chain_r(n), chain_u(n);  // R[i], U[i]
  for (size_t i = 0; i < n; i++) {
    chain_r[i] = i == 0 ? rhat[0] : rhat[i] + u_perm[i] * chain_r[i - 1];
    chain_u[i] = i == 0 ? u_perm[0] : u_perm[i] * chain_u[i - 1];
  }
  const FixedBaseTable& chain_base = ChainBaseTable();
  proof.chain_commit.resize(n);
  {
    std::vector<Point> on_h(n);
    FixedBaseMul(Point::GeneratorTable(), chain_r, proof.chain_commit,
                 workers);
    FixedBaseMul(chain_base, chain_u, on_h, workers);
    for (size_t i = 0; i < n; i++) {
      proof.chain_commit[i] = proof.chain_commit[i] + on_h[i];
    }
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

  // The sigma commitments' products, on the lane kernel:
  //   - on G: w1, w2, w3, each ω4[c], and t̂[i]'s G scalar;
  //   - on H: t̂[i]'s H scalar; on pk: each ω4[c];
  //   - the 1 + 2l MSMs over w': Σ w'[i]·H[i] for t3, and per component
  //     Σ w'[i]·ẽ[i].r and Σ w'[i]·ẽ[i].c for t4a, t4b.
  // t̂[i] = ŵ[i]·G + w'[i]·ĉ[i-1]
  //      = (ŵ[i] + w'[i]·R[i-1])·G + (w'[i]·U[i-1])·H, with U[-1] = 1.
  std::vector<Scalar> on_g = {w1, w2, w3};
  on_g.insert(on_g.end(), w4.begin(), w4.end());
  std::vector<Scalar> on_h(n);
  for (size_t i = 0; i < n; i++) {
    on_g.push_back(i == 0 ? w_hat[0] : w_hat[i] + w_prime[i] * chain_r[i - 1]);
    on_h[i] = i == 0 ? w_prime[0] : w_prime[i] * chain_u[i - 1];
  }
  std::vector<Point> g_products(on_g.size()), h_products(n), pk_products(l);
  FixedBaseMul(Point::GeneratorTable(), on_g, g_products, workers);
  FixedBaseMul(chain_base, on_h, h_products, workers);
  SameBaseMul(pk, pk_table, w4, pk_products, workers);
  std::vector<Point> msm_bases(hs);
  msm_bases.reserve((1 + 2 * l) * n);
  for (size_t c = 0; c < l; c++) {
    for (size_t i = 0; i < n; i++) {
      msm_bases.push_back(result.output[i][c].r);
    }
    for (size_t i = 0; i < n; i++) {
      msm_bases.push_back(result.output[i][c].c);
    }
  }
  // The bases are hash-derived generators and this prover's own freshly
  // rerandomized outputs: nobody knows a relation between them and the
  // kernel's offset point, as SharedDigitMsm requires.
  std::vector<Point> msms(1 + 2 * l);
  SharedDigitMsm(msm_bases, w_prime, msms, workers);

  proof.t1 = g_products[0];
  proof.t2 = g_products[1];
  proof.t3 = g_products[2] + msms[0];
  proof.t4a.resize(l);
  proof.t4b.resize(l);
  for (size_t c = 0; c < l; c++) {
    // t4a = Σ ω'[i]·ẽ[i].r - ω4·G, t4b likewise with .c / pk.
    proof.t4a[c] = msms[1 + 2 * c] - g_products[3 + c];
    proof.t4b[c] = msms[2 + 2 * c] - pk_products[c];
  }
  proof.t_hat.resize(n);
  for (size_t i = 0; i < n; i++) {
    proof.t_hat[i] = g_products[3 + l + i] + h_products[i];
  }

  // Fiat-Shamir round 2: the main challenge.
  AppendCommitments(transcript, proof);
  Scalar challenge = transcript.ChallengeScalar("c");

  // Responses.
  proof.s1 = w1 + challenge * r_bar;
  proof.s2 = w2 + challenge * chain_r[n - 1];
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

std::optional<ShuffleChainCheck> ShuffleChainCheck::Prepare(
    const Point& pk, std::span<const CiphertextBatch* const> batches,
    std::span<const ShuffleProof> proofs) {
  if (proofs.empty() || batches.size() != proofs.size() + 1) {
    return std::nullopt;
  }
  auto shape = ShapeOf(*batches[0]);
  if (!shape) {
    return std::nullopt;
  }
  for (const CiphertextBatch* batch : batches) {
    auto s = ShapeOf(*batch);
    if (!s || s->n != shape->n || s->l != shape->l) {
      return std::nullopt;
    }
  }
  const size_t n = shape->n, l = shape->l;
  for (const ShuffleProof& proof : proofs) {
    if (proof.perm_commit.size() != n || proof.chain_commit.size() != n ||
        proof.t_hat.size() != n || proof.s_hat.size() != n ||
        proof.s_prime.size() != n || proof.t4a.size() != l ||
        proof.t4b.size() != l || proof.s4.size() != l) {
      return std::nullopt;
    }
  }

  ShuffleChainCheck chain;
  chain.pk_ = pk;
  chain.batches_ = batches;
  chain.proofs_ = proofs;
  chain.n_ = n;
  chain.l_ = l;
  // Each batch between two proofs is hashed by both; encode it once.
  std::vector<Bytes> encoded;
  encoded.reserve(batches.size());
  for (const CiphertextBatch* batch : batches) {
    encoded.push_back(EncodeBatch(*batch));
  }
  for (size_t s = 0; s < proofs.size(); s++) {
    const ShuffleProof& proof = proofs[s];
    // Recompute both Fiat-Shamir challenges.
    Transcript transcript =
        StatementTranscript(pk, n, l, BytesView(encoded[s]),
                            BytesView(encoded[s + 1]), proof.perm_commit);
    chain.u_.push_back(DeriveU(transcript, n));
    AppendCommitments(transcript, proof);
    chain.challenges_.push_back(transcript.ChallengeScalar("c"));
    // The proof's own weights, one per equation, from the transcript
    // continued over every response: a prover who could predict them could
    // cancel an error in one equation against an error in another.
    transcript.AppendScalar("s1", proof.s1);
    transcript.AppendScalar("s2", proof.s2);
    transcript.AppendScalar("s3", proof.s3);
    for (const auto* responses : {&proof.s4, &proof.s_hat, &proof.s_prime}) {
      for (const Scalar& s_i : *responses) {
        transcript.AppendScalar("s", s_i);
      }
    }
    chain.seeds_.push_back(transcript.ChallengeBytes("batch-weights"));
  }
  return chain;
}

size_t ShuffleChainCheck::MaxTerms() const {
  // Per proof: t1..t3, t4a/t4b, and perm_commit, t_hat and chain_commit per
  // message, plus each input and output component's r and c; then H, pk
  // and the H[i] once.
  return proofs_.size() * (3 + 2 * l_ + 3 * n_ + 4 * l_ * n_) + 2 + n_;
}

void ShuffleChainCheck::AddTo(std::span<const Scalar> outer,
                              MsmCheck& check) const {
  ATOM_CHECK(outer.size() == proofs_.size());
  const size_t n = n_, l = l_;
  // H, pk and the H[i] are the same in every proof: their coefficients
  // are summed here and enter the check once.
  Scalar h_scalar = Scalar::Zero(), pk_scalar = Scalar::Zero();
  std::vector<Scalar> hs_scalars(n, Scalar::Zero());
  for (size_t p = 0; p < proofs_.size(); p++) {
    const ShuffleProof& proof = proofs_[p];
    const CiphertextBatch& input = *batches_[p];
    const CiphertextBatch& output = *batches_[p + 1];
    const std::vector<Scalar>& u = u_[p];
    const Scalar& challenge = challenges_[p];
    const Scalar& rho = outer[p];
    Rng stream{BytesView(seeds_[p].data(), seeds_[p].size())};
    auto draw = [&](size_t count) {
      std::vector<Scalar> w(count);
      for (Scalar& x : w) {
        x = rho * Scalar::Random(stream);
      }
      return w;
    };
    const Scalar w1 = rho * Scalar::Random(stream);
    const Scalar w2 = rho * Scalar::Random(stream);
    const Scalar w3 = rho * Scalar::Random(stream);
    const std::vector<Scalar> w4a = draw(l), w4b = draw(l), w_hat = draw(n);

    // The equations, G terms on the left (H = chain base, ĉ[-1] = H):
    //   REL1   s1·G = t1 + c·Σc[j] - c·ΣH[i]
    //   REL2   s2·G = t2 + c·ĉ[n-1] - (c·Πu[j])·H
    //   REL3   s3·G = t3 + c·Σu[j]·c[j] - Σs'[i]·H[i]
    //   REL4a -s4·G = t4a + c·Σu[j]·e[j].r - Σs'[i]·ẽ[i].r   (per component)
    //   REL4b    0  = t4b + c·Σu[j]·e[j].c - Σs'[i]·ẽ[i].c + s4·pk
    //   chain ŝ[i]·G = t̂[i] + c·ĉ[i] - s'[i]·ĉ[i-1]
    // On its own, one proof's weighted sum is a BaseMul against an MSM over
    // 4n + 4ln + 2l + 5 points.
    Scalar g_scalar = w1 * proof.s1 + w2 * proof.s2 + w3 * proof.s3;
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

    check.Add(proof.t1, w1);
    check.Add(proof.t2, w2);
    check.Add(proof.t3, w3);
    h_scalar = h_scalar -
               (w2 * challenge * u_product + w_hat[0] * proof.s_prime[0]);
    for (size_t c = 0; c < l; c++) {
      check.Add(proof.t4a[c], w4a[c]);
      check.Add(proof.t4b[c], w4b[c]);
    }
    const Scalar w1c = w1 * challenge;
    for (size_t i = 0; i < n; i++) {
      g_scalar = g_scalar + w_hat[i] * proof.s_hat[i];
      check.Add(proof.perm_commit[i], w1c + w3 * cu[i]);
      hs_scalars[i] = hs_scalars[i] - (w1c + w3 * proof.s_prime[i]);
      check.Add(proof.t_hat[i], w_hat[i]);
      Scalar chain_scalar = w_hat[i] * challenge;
      if (i + 1 < n) {
        chain_scalar = chain_scalar - w_hat[i + 1] * proof.s_prime[i + 1];
      } else {
        chain_scalar = chain_scalar + w2 * challenge;
      }
      check.Add(proof.chain_commit[i], chain_scalar);
    }
    check.AddG(g_scalar);
    // A batch between two proofs is one's output and the next one's input.
    for (size_t c = 0; c < l; c++) {
      for (size_t i = 0; i < n; i++) {
        check.AddShared(input[i][c].r, w4a[c] * cu[i]);
        check.AddShared(input[i][c].c, w4b[c] * cu[i]);
        check.AddShared(output[i][c].r, (w4a[c] * proof.s_prime[i]).Neg());
        check.AddShared(output[i][c].c, (w4b[c] * proof.s_prime[i]).Neg());
      }
    }
  }
  check.Add(ChainBase(), h_scalar);
  check.Add(pk_, pk_scalar);
  std::vector<Point> hs = ShuffleGens::Instance().FirstN(n);
  for (size_t i = 0; i < n; i++) {
    check.Add(hs[i], hs_scalars[i]);
  }
}

bool VerifyShuffleChain(const Point& pk,
                        std::span<const CiphertextBatch* const> batches,
                        std::span<const ShuffleProof> proofs, size_t workers) {
  auto chain = ShuffleChainCheck::Prepare(pk, batches, proofs);
  if (!chain) {
    return false;
  }
  MsmCheck check;
  check.Reserve(chain->MaxTerms());
  chain->AddTo(OuterWeights(chain->seeds()), check);
  return check.Holds(workers);
}

bool VerifyShuffle(const Point& pk, const CiphertextBatch& input,
                   const CiphertextBatch& output, const ShuffleProof& proof,
                   size_t workers) {
  const CiphertextBatch* batches[] = {&input, &output};
  return VerifyShuffleChain(pk, batches, std::span(&proof, 1), workers);
}

}  // namespace atom
