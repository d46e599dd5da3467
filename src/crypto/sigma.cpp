#include "src/crypto/sigma.h"

#include <iterator>
#include <string_view>

#include "src/crypto/lanes.h"
#include "src/crypto/msm_check.h"
#include "src/crypto/transcript.h"
#include "src/util/serde.h"

namespace atom {
namespace {

// The points an EncProof statement adds after pk, in transcript order.
constexpr std::string_view kEncStatementLabels[] = {"ct.r", "ct.c", "ct.y",
                                                    "commit"};
constexpr size_t kEncStatementPoints = std::size(kEncStatementLabels);

// pk, then each proof's ct.r, ct.c, ct.y and commitment, encoded by one
// EncodePoints call: the whole vector pays one inversion. Transcripts
// append these bytes, which are those of appending each point on its own.
Bytes EncodeEncStatements(const Point& pk,
                          std::span<const ElGamalCiphertext> cts,
                          std::span<const Point> commits) {
  std::vector<Point> points;
  points.reserve(1 + kEncStatementPoints * cts.size());
  points.push_back(pk);
  for (size_t i = 0; i < cts.size(); i++) {
    points.insert(points.end(), {cts[i].r, cts[i].c, cts[i].y, commits[i]});
  }
  return EncodePoints(points);
}

// Appends statement i of EncodeEncStatements' output, labelled.
void AppendEncStatement(Transcript& t, BytesView encoded, size_t i) {
  for (size_t j = 0; j < kEncStatementPoints; j++) {
    t.AppendBytes(kEncStatementLabels[j],
                  EncodedPoint(encoded, 1 + i * kEncStatementPoints + j));
  }
}

// Proof i's challenge, from EncodeEncStatements' output.
Scalar EncChallenge(BytesView encoded, uint32_t gid, size_t i) {
  Transcript t("atom/enc-proof/v1");
  t.AppendBytes("pk", EncodedPoint(encoded, 0));
  t.AppendU64("gid", gid);
  AppendEncStatement(t, encoded, i);
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
    t.AppendBytes(kLabels[i], EncodedPoint(encoded, i));
    if (i == 1) {
      t.AppendU64("has_next", has_next ? 1 : 0);
    }
  }
  return t.ChallengeScalar("e");
}

// Every claim's challenge, with one EncodePoints over all transcripts.
std::vector<Scalar> ReEncChallenges(const Point& server_pk,
                                    std::span<const ReEncClaim> claims) {
  std::vector<Point> transcript_points;
  transcript_points.reserve(kReEncTranscriptPoints * claims.size());
  for (const ReEncClaim& claim : claims) {
    AppendReEncTranscriptPoints(server_pk, claim.next_pk,
                                NormalizeInput(claim.input), claim.output,
                                claim.proof.a1, claim.proof.a2, claim.proof.a3,
                                &transcript_points);
  }
  const Bytes encoded = EncodePoints(transcript_points);
  constexpr size_t kClaimBytes = kReEncTranscriptPoints * Point::kEncodedSize;
  std::vector<Scalar> challenges;
  challenges.reserve(claims.size());
  for (size_t i = 0; i < claims.size(); i++) {
    challenges.push_back(ReEncChallenge(
        BytesView(encoded).subspan(i * kClaimBytes, kClaimBytes),
        claims[i].next_pk != nullptr));
  }
  return challenges;
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
  return MakeEncProofVec(pk, gid, {ct}, std::span(&randomness, 1), rng)[0];
}

bool VerifyEncProof(const Point& pk, uint32_t gid,
                    const ElGamalCiphertext& ct, const EncProof& proof) {
  const Bytes encoded =
      EncodeEncStatements(pk, std::span(&ct, 1), std::span(&proof.commit, 1));
  Scalar t = EncChallenge(encoded, gid, 0);
  // g^u == commit * R^t.
  return Point::BaseMul(proof.u) == proof.commit + ct.r.Mul(t);
}

std::vector<EncProof> MakeEncProofVec(const Point& pk, uint32_t gid,
                                      const ElGamalCiphertextVec& cts,
                                      std::span<const Scalar> randomness,
                                      Rng& rng) {
  ATOM_CHECK(cts.size() == randomness.size());
  std::vector<Scalar> nonces;
  std::vector<Point> commits;
  nonces.reserve(cts.size());
  commits.reserve(cts.size());
  for (size_t i = 0; i < cts.size(); i++) {
    nonces.push_back(Scalar::Random(rng));
    commits.push_back(Point::BaseMul(nonces.back()));
  }
  const Bytes encoded = EncodeEncStatements(pk, cts, commits);
  std::vector<EncProof> out;
  out.reserve(cts.size());
  for (size_t i = 0; i < cts.size(); i++) {
    out.push_back(EncProof{
        commits[i], nonces[i] + EncChallenge(encoded, gid, i) * randomness[i]});
  }
  return out;
}

bool VerifyEncProofVec(const Point& pk, uint32_t gid,
                       const ElGamalCiphertextVec& cts,
                       std::span<const EncProof> proofs) {
  if (cts.size() != proofs.size()) {
    return false;
  }
  // From two proofs up the batch test (one BaseMul plus one Straus MSM
  // over 2n points, one inversion for every transcript) costs less than n
  // BaseMul + Mul pairs: the bench_table3_primitives intake rows read
  // 88-118 us per proof against 111-142 at 2 components, 73-94 against
  // 110-139 at 3 and 60-78 against 108-137 at 5 (4-vCPU Xeon, gcc 12).
  if (cts.size() >= 2) {
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
  // One EncodePoints serves this transcript and every proof's challenge.
  std::vector<Point> commits;
  commits.reserve(n);
  for (const EncProof& proof : proofs) {
    commits.push_back(proof.commit);
  }
  const Bytes encoded = EncodeEncStatements(pk, cts, commits);
  Transcript t("atom/enc-proof-batch/v1");
  t.AppendBytes("pk", EncodedPoint(encoded, 0));
  t.AppendU64("gid", gid);
  for (size_t i = 0; i < n; i++) {
    AppendEncStatement(t, encoded, i);
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
    Scalar challenge = EncChallenge(encoded, gid, i);
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

ReEncProof CommitReEncProof(const Point& kx_g, const Point& kr_g,
                            const Point& kx_y, const Point* kr_n) {
  ReEncProof proof;
  proof.a1 = kx_g;
  proof.a2 = kr_g;
  // a3 commits to the c-relation: -kx*Y (+ kr*next_pk).
  proof.a3 = kx_y.Neg();
  if (kr_n != nullptr) {
    proof.a3 = proof.a3 + *kr_n;
  }
  return proof;
}

std::vector<ReEncProof> CompleteReEncProofs(
    const Scalar& server_sk, const Point& server_pk,
    std::span<const ReEncClaim> claims,
    std::span<const ReEncWitness> witnesses) {
  ATOM_CHECK(claims.size() == witnesses.size());
  const std::vector<Scalar> challenges = ReEncChallenges(server_pk, claims);
  std::vector<ReEncProof> proofs;
  proofs.reserve(claims.size());
  for (size_t i = 0; i < claims.size(); i++) {
    ReEncProof& proof = proofs.emplace_back(claims[i].proof);
    proof.zx = witnesses[i].kx + challenges[i] * server_sk;
    proof.zr = witnesses[i].kr + challenges[i] * witnesses[i].rewrap;
  }
  return proofs;
}

ReEncProof MakeReEncProof(const Scalar& server_sk, const Point& server_pk,
                          const Point* next_pk, const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const Scalar& rewrap_randomness, Rng& rng,
                          const FixedBaseTable* next_table) {
  ReEncWitness witness;
  witness.rewrap = rewrap_randomness;
  witness.kx = Scalar::Random(rng);
  witness.kr = Scalar::Random(rng);
  ATOM_CHECK(next_table == nullptr || next_pk != nullptr);
  // The products through the lane kernel, as ReEncStep makes them.
  const Scalar on_g[] = {witness.kx, witness.kr};
  Point g_products[2];
  FixedBaseMul(Point::GeneratorTable(), on_g, g_products);
  const Point y = NormalizeInput(input).y;
  Point kx_y, kr_n;
  const std::span<const Scalar> kx_column[] = {std::span(&witness.kx, 1)};
  const std::span<Point> kx_out[] = {std::span(&kx_y, 1)};
  VariableBaseMul(std::span(&y, 1), kx_column, kx_out);
  if (next_pk != nullptr) {
    SameBaseMul(*next_pk, next_table, std::span(&witness.kr, 1),
                std::span(&kr_n, 1));
  }
  const ReEncProof commitments =
      CommitReEncProof(g_products[0], g_products[1], kx_y,
                       next_pk != nullptr ? &kr_n : nullptr);
  const ReEncClaim claim{next_pk, input, output, commitments};
  return CompleteReEncProofs(server_sk, server_pk, std::span(&claim, 1),
                             std::span(&witness, 1))[0];
}

std::optional<ReEncChainCheck> ReEncChainCheck::Prepare(
    std::span<const Point> server_pks,
    std::span<const std::span<const ReEncClaim>> steps) {
  if (steps.empty() || steps.size() != server_pks.size()) {
    return std::nullopt;
  }
  const size_t n = steps[0].size();
  ReEncChainCheck chain;
  chain.server_pks_ = server_pks;
  chain.steps_ = steps;
  // Claim j's Y is its first input's, normalized: the r of a Y = ⊥ input.
  chain.ys_.reserve(n);
  for (const ReEncClaim& claim : steps[0]) {
    chain.ys_.push_back(claim.input.YIsNull() ? &claim.input.r
                                              : &claim.input.y);
  }
  for (size_t s = 0; s < steps.size(); s++) {
    if (steps[s].size() != n) {
      return std::nullopt;
    }
    // Y carries through every step unchanged.
    for (size_t j = 0; j < n; j++) {
      const ElGamalCiphertext& in = steps[s][j].input;
      const Point& y = in.YIsNull() ? in.r : in.y;
      if (!(steps[s][j].output.y == y) || !(y == *chain.ys_[j])) {
        return std::nullopt;
      }
    }
    // The step's weights hash every challenge (which binds its claim's
    // statement and commitments) and every response. A prover who could
    // predict them could offset an error in one relation by one in another.
    chain.challenges_.push_back(ReEncChallenges(server_pks[s], steps[s]));
    Transcript t("atom/reenc-proof-batch/v1");
    t.AppendU64("n", n);
    for (size_t j = 0; j < n; j++) {
      t.AppendScalar("e", chain.challenges_[s][j]);
      t.AppendScalar("zx", steps[s][j].proof.zx);
      t.AppendScalar("zr", steps[s][j].proof.zr);
    }
    chain.seeds_.push_back(t.ChallengeBytes("weights"));
  }
  return chain;
}

size_t ReEncChainCheck::MaxTerms() const {
  // Per claim: a1..a3, the r and c differences, Y and next_pk; per step the
  // server key.
  size_t terms = 0;
  for (const std::span<const ReEncClaim>& step : steps_) {
    terms += 7 * step.size() + 1;
  }
  return terms;
}

void ReEncChainCheck::AddTo(std::span<const Scalar> outer,
                            MsmCheck& check) const {
  ATOM_CHECK(outer.size() == steps_.size());
  for (size_t s = 0; s < steps_.size(); s++) {
    Rng stream{BytesView(seeds_[s].data(), seeds_[s].size())};
    // Claim j's relations, G terms on the left (X = server_pk, Y = in.y,
    // N = next_pk, absent at the exit layer):
    //   zx·G = a1 + e·X
    //   zr·G = a2 + e·(out.r - in.r)
    //   0    = a3 + e·(out.c - in.c) + zx·Y - zr·N
    // weighted by (α, β, γ) and summed over the step's claims. X, Y and
    // each N enter the check once.
    Scalar g_scalar = Scalar::Zero();
    Scalar x_scalar = Scalar::Zero();
    for (size_t j = 0; j < steps_[s].size(); j++) {
      const ReEncClaim& claim = steps_[s][j];
      const ReEncProof& proof = claim.proof;
      const ElGamalCiphertext in = NormalizeInput(claim.input);
      const Scalar& e = challenges_[s][j];
      const Scalar alpha = outer[s] * Scalar::Random(stream);
      const Scalar beta = outer[s] * Scalar::Random(stream);
      const Scalar gamma = outer[s] * Scalar::Random(stream);
      g_scalar = g_scalar + alpha * proof.zx + beta * proof.zr;
      x_scalar = x_scalar + alpha * e;
      check.Add(proof.a1, alpha);
      check.Add(proof.a2, beta);
      check.Add(proof.a3, gamma);
      check.Add(claim.output.r - in.r, beta * e);
      check.Add(claim.output.c - in.c, gamma * e);
      check.AddShared(*ys_[j], gamma * proof.zx);
      if (claim.next_pk != nullptr) {
        check.AddShared(*claim.next_pk, (gamma * proof.zr).Neg());
      }
    }
    check.AddG(g_scalar);
    check.AddShared(server_pks_[s], x_scalar);
  }
}

bool VerifyReEncChain(std::span<const Point> server_pks,
                      std::span<const std::span<const ReEncClaim>> steps,
                      size_t workers) {
  auto chain = ReEncChainCheck::Prepare(server_pks, steps);
  if (!chain) {
    return false;
  }
  MsmCheck check;
  check.Reserve(chain->MaxTerms());
  chain->AddTo(OuterWeights(chain->seeds()), check);
  return check.Holds(workers);
}

bool VerifyReEncProofBatch(const Point& server_pk,
                           std::span<const ReEncClaim> claims) {
  return VerifyReEncChain(std::span(&server_pk, 1), std::span(&claims, 1));
}

bool VerifyReEncProof(const Point& server_pk, const Point* next_pk,
                      const ElGamalCiphertext& input,
                      const ElGamalCiphertext& output,
                      const ReEncProof& proof) {
  const ReEncClaim claim{next_pk, input, output, proof};
  return VerifyReEncProofBatch(server_pk, std::span(&claim, 1));
}

}  // namespace atom
