#include "src/crypto/sigma.h"

#include "src/crypto/transcript.h"
#include "src/util/serde.h"

namespace atom {
namespace {

Scalar EncChallenge(const Point& pk, uint32_t gid, const ElGamalCiphertext& ct,
                    const Point& commit) {
  Transcript t("atom/enc-proof/v1");
  t.AppendPoint("pk", pk);
  t.AppendU64("gid", gid);
  t.AppendPoint("ct.r", ct.r);
  t.AppendPoint("ct.c", ct.c);
  t.AppendPoint("ct.y", ct.y);
  t.AppendPoint("commit", commit);
  return t.ChallengeScalar("t");
}

// Applies the ReEnc Y-normalization so prover and verifier agree on the
// effective input.
ElGamalCiphertext NormalizeInput(const ElGamalCiphertext& input) {
  ElGamalCiphertext in = input;
  if (in.YIsNull()) {
    in.y = in.r;
    in.r = Point::Infinity();
  }
  return in;
}

// The points a ReEnc challenge hashes, in transcript order.
constexpr size_t kReEncTranscriptPoints = 11;

void AppendReEncTranscriptPoints(const Point& server_pk, const Point* next_pk,
                                 const ElGamalCiphertext& in,
                                 const ElGamalCiphertext& out, const Point& a1,
                                 const Point& a2, const Point& a3,
                                 std::vector<Point>* dst) {
  dst->insert(dst->end(),
              {server_pk, next_pk != nullptr ? *next_pk : Point::Infinity(),
               in.r, in.c, in.y, out.r, out.c, out.y, a1, a2, a3});
}

// `encoded` holds the kReEncTranscriptPoints encodings in the order above
// (from one EncodePoints call, so the whole batch pays one inversion); the
// transcript bytes are those of appending each point on its own.
Scalar ReEncChallenge(BytesView encoded, bool has_next) {
  static constexpr std::string_view kLabels[kReEncTranscriptPoints] = {
      "server_pk", "next_pk", "in.r", "in.c", "in.y", "out.r",
      "out.c",     "out.y",   "a1",   "a2",   "a3"};
  Transcript t("atom/reenc-proof/v1");
  for (size_t i = 0; i < kReEncTranscriptPoints; i++) {
    t.AppendBytes(kLabels[i], encoded.subspan(i * Point::kEncodedSize,
                                              Point::kEncodedSize));
    if (i == 1) {
      t.AppendU64("has_next", has_next ? 1 : 0);
    }
  }
  return t.ChallengeScalar("e");
}

}  // namespace

// ---------------------------------------------------------------- EncProof

Bytes EncProof::Encode() const {
  Bytes out = commit.Encode();
  auto ub = u.ToBytes();
  out.insert(out.end(), ub.begin(), ub.end());
  return out;
}

std::optional<EncProof> EncProof::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  auto commit = Point::Decode(bytes.subspan(0, Point::kEncodedSize));
  auto u = Scalar::FromBytes(bytes.subspan(Point::kEncodedSize));
  if (!commit.has_value() || !u.has_value()) {
    return std::nullopt;
  }
  return EncProof{*commit, *u};
}

EncProof MakeEncProof(const Point& pk, uint32_t gid,
                      const ElGamalCiphertext& ct, const Scalar& randomness,
                      Rng& rng) {
  Scalar s = Scalar::Random(rng);
  EncProof proof;
  proof.commit = Point::BaseMul(s);
  Scalar t = EncChallenge(pk, gid, ct, proof.commit);
  proof.u = s + t * randomness;
  return proof;
}

bool VerifyEncProof(const Point& pk, uint32_t gid,
                    const ElGamalCiphertext& ct, const EncProof& proof) {
  Scalar t = EncChallenge(pk, gid, ct, proof.commit);
  // g^u == commit * R^t.
  return Point::BaseMul(proof.u) == proof.commit + ct.r.Mul(t);
}

std::vector<EncProof> MakeEncProofVec(const Point& pk, uint32_t gid,
                                      const ElGamalCiphertextVec& cts,
                                      std::span<const Scalar> randomness,
                                      Rng& rng) {
  ATOM_CHECK(cts.size() == randomness.size());
  std::vector<EncProof> out;
  out.reserve(cts.size());
  for (size_t i = 0; i < cts.size(); i++) {
    out.push_back(MakeEncProof(pk, gid, cts[i], randomness[i], rng));
  }
  return out;
}

bool VerifyEncProofVec(const Point& pk, uint32_t gid,
                       const ElGamalCiphertextVec& cts,
                       std::span<const EncProof> proofs) {
  if (cts.size() != proofs.size()) {
    return false;
  }
  if (cts.size() >= 8) {
    return VerifyEncProofBatch(pk, gid, cts, proofs);
  }
  for (size_t i = 0; i < cts.size(); i++) {
    if (!VerifyEncProof(pk, gid, cts[i], proofs[i])) {
      return false;
    }
  }
  return true;
}

bool VerifyEncProofBatch(const Point& pk, uint32_t gid,
                         const ElGamalCiphertextVec& cts,
                         std::span<const EncProof> proofs) {
  if (cts.size() != proofs.size() || cts.empty()) {
    return false;
  }
  const size_t n = cts.size();

  // Derandomized batch coefficients: γ_i from a hash of the whole
  // statement, so no coefficient can be predicted before the proofs are
  // fixed.
  Transcript t("atom/enc-proof-batch/v1");
  t.AppendPoint("pk", pk);
  t.AppendU64("gid", gid);
  for (size_t i = 0; i < n; i++) {
    t.AppendPoint("ct.r", cts[i].r);
    t.AppendPoint("ct.c", cts[i].c);
    t.AppendPoint("ct.y", cts[i].y);
    t.AppendPoint("commit", proofs[i].commit);
    t.AppendScalar("u", proofs[i].u);
  }
  auto seed = t.ChallengeBytes("gamma-seed");
  Rng stream{BytesView(seed.data(), seed.size())};

  // Per-proof equation: u_i·G == commit_i + t_i·R_i. Random-combined:
  //   (Σ γ_i·u_i)·G - Σ γ_i·commit_i - Σ (γ_i·t_i)·R_i == identity.
  Scalar lhs_scalar = Scalar::Zero();
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  points.reserve(2 * n);
  scalars.reserve(2 * n);
  for (size_t i = 0; i < n; i++) {
    Scalar gamma = Scalar::Random(stream);
    Scalar challenge = EncChallenge(pk, gid, cts[i], proofs[i].commit);
    lhs_scalar = lhs_scalar + gamma * proofs[i].u;
    points.push_back(proofs[i].commit);
    scalars.push_back(gamma);
    points.push_back(cts[i].r);
    scalars.push_back(gamma * challenge);
  }
  Point rhs = MultiScalarMul(points, scalars);
  return Point::BaseMul(lhs_scalar) == rhs;
}

// -------------------------------------------------------------- ReEncProof

Bytes ReEncProof::Encode() const {
  Bytes out;
  out.reserve(kEncodedSize);
  for (const Point* p : {&a1, &a2, &a3}) {
    Bytes enc = p->Encode();
    out.insert(out.end(), enc.begin(), enc.end());
  }
  for (const Scalar* s : {&zx, &zr}) {
    auto sb = s->ToBytes();
    out.insert(out.end(), sb.begin(), sb.end());
  }
  return out;
}

std::optional<ReEncProof> ReEncProof::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  ReEncProof proof;
  Point* points[3] = {&proof.a1, &proof.a2, &proof.a3};
  size_t off = 0;
  for (auto* p : points) {
    auto dec = Point::Decode(bytes.subspan(off, Point::kEncodedSize));
    if (!dec.has_value()) {
      return std::nullopt;
    }
    *p = *dec;
    off += Point::kEncodedSize;
  }
  Scalar* scalars[2] = {&proof.zx, &proof.zr};
  for (auto* s : scalars) {
    auto dec = Scalar::FromBytes(bytes.subspan(off, 32));
    if (!dec.has_value()) {
      return std::nullopt;
    }
    *s = *dec;
    off += 32;
  }
  return proof;
}

ReEncProof MakeReEncProof(const Scalar& server_sk, const Point& server_pk,
                          const Point* next_pk, const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const Scalar& rewrap_randomness, Rng& rng,
                          const FixedBaseTable* next_table) {
  ATOM_CHECK(next_table == nullptr ||
             (next_pk != nullptr && next_table->base() == *next_pk));
  ElGamalCiphertext in = NormalizeInput(input);

  Scalar kx = Scalar::Random(rng);
  Scalar kr = Scalar::Random(rng);

  ReEncProof proof;
  proof.a1 = Point::BaseMul(kx);
  proof.a2 = Point::BaseMul(kr);
  // a3 commits to the c-relation: -kx*Y (+ kr*next_pk).
  proof.a3 = in.y.Mul(kx).Neg();
  if (next_pk != nullptr) {
    proof.a3 = proof.a3 + (next_table != nullptr ? next_table->Mul(kr)
                                                 : next_pk->Mul(kr));
  }

  std::vector<Point> transcript_points;
  transcript_points.reserve(kReEncTranscriptPoints);
  AppendReEncTranscriptPoints(server_pk, next_pk, in, output, proof.a1,
                              proof.a2, proof.a3, &transcript_points);
  Scalar e = ReEncChallenge(BytesView(EncodePoints(transcript_points)),
                            next_pk != nullptr);
  proof.zx = kx + e * server_sk;
  proof.zr = kr + e * rewrap_randomness;
  return proof;
}

bool VerifyReEncProofBatch(const Point& server_pk,
                           std::span<const ReEncClaim> claims) {
  const size_t n = claims.size();
  if (n == 0) {
    return true;
  }
  std::vector<ElGamalCiphertext> ins;
  ins.reserve(n);
  Bytes encoded;
  {
    std::vector<Point> transcript_points;
    transcript_points.reserve(kReEncTranscriptPoints * n);
    for (const ReEncClaim& claim : claims) {
      ins.push_back(NormalizeInput(claim.input));
      // The hop's Y must carry through unchanged.
      if (!(claim.output.y == ins.back().y)) {
        return false;
      }
      AppendReEncTranscriptPoints(server_pk, claim.next_pk, ins.back(),
                                  claim.output, claim.proof.a1,
                                  claim.proof.a2, claim.proof.a3,
                                  &transcript_points);
    }
    encoded = EncodePoints(transcript_points);
  }  // frees the point copies before the MSM inputs are built
  constexpr size_t kClaimBytes = kReEncTranscriptPoints * Point::kEncodedSize;

  // Batch weights hash every challenge (which binds its claim's statement
  // and commitments) and every response. A prover who could predict the
  // weights could offset an error in one relation by one in another.
  std::vector<Scalar> challenges(n);
  Transcript t("atom/reenc-proof-batch/v1");
  t.AppendU64("n", n);
  for (size_t i = 0; i < n; i++) {
    challenges[i] =
        ReEncChallenge(BytesView(encoded).subspan(i * kClaimBytes, kClaimBytes),
                       claims[i].next_pk != nullptr);
    t.AppendScalar("e", challenges[i]);
    t.AppendScalar("zx", claims[i].proof.zx);
    t.AppendScalar("zr", claims[i].proof.zr);
  }
  auto seed = t.ChallengeBytes("weights");
  Rng stream{BytesView(seed.data(), seed.size())};

  // Claim i's relations, G terms on the left (X = server_pk, Y = in.y,
  // N = next_pk, absent at the exit layer):
  //   zx·G = a1 + e·X
  //   zr·G = a2 + e·(out.r - in.r)
  //   0    = a3 + e·(out.c - in.c) + zx·Y - zr·N
  // weighted by (α, β, γ) and summed over all claims. X and each distinct
  // N enter the MSM once with their summed coefficients.
  Scalar g_scalar = Scalar::Zero();
  Scalar x_scalar = Scalar::Zero();
  std::vector<const Point*> next_keys;
  std::vector<Scalar> next_scalars;
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  points.reserve(6 * n + 2);
  scalars.reserve(6 * n + 2);
  for (size_t i = 0; i < n; i++) {
    const ReEncClaim& claim = claims[i];
    const ReEncProof& proof = claim.proof;
    const Scalar& e = challenges[i];
    Scalar alpha = Scalar::Random(stream);
    Scalar beta = Scalar::Random(stream);
    Scalar gamma = Scalar::Random(stream);
    g_scalar = g_scalar + alpha * proof.zx + beta * proof.zr;
    x_scalar = x_scalar + alpha * e;
    points.insert(points.end(), {proof.a1, proof.a2, proof.a3,
                                 claim.output.r - ins[i].r,
                                 claim.output.c - ins[i].c, ins[i].y});
    scalars.insert(scalars.end(),
                   {alpha, beta, gamma, beta * e, gamma * e, gamma * proof.zx});
    if (claim.next_pk != nullptr) {
      size_t k = 0;
      while (k < next_keys.size() && next_keys[k] != claim.next_pk &&
             !(*next_keys[k] == *claim.next_pk)) {
        k++;
      }
      if (k == next_keys.size()) {
        next_keys.push_back(claim.next_pk);
        next_scalars.push_back(Scalar::Zero());
      }
      next_scalars[k] = next_scalars[k] - gamma * proof.zr;
    }
  }
  points.push_back(server_pk);
  scalars.push_back(x_scalar);
  for (size_t k = 0; k < next_keys.size(); k++) {
    points.push_back(*next_keys[k]);
    scalars.push_back(next_scalars[k]);
  }
  return Point::BaseMul(g_scalar) == MultiScalarMul(points, scalars);
}

bool VerifyReEncProof(const Point& server_pk, const Point* next_pk,
                      const ElGamalCiphertext& input,
                      const ElGamalCiphertext& output,
                      const ReEncProof& proof) {
  const ReEncClaim claim{next_pk, input, output, proof};
  return VerifyReEncProofBatch(server_pk, std::span(&claim, 1));
}

}  // namespace atom
