#include "src/crypto/schnorr.h"

#include <vector>

#include "src/crypto/transcript.h"

namespace atom {
namespace {

// The challenge over the encodings of the commitment and the key.
Scalar Challenge(BytesView commit, BytesView pk, BytesView message) {
  Transcript t("atom/schnorr/v1");
  t.AppendBytes("commit", commit);
  t.AppendBytes("pk", pk);
  t.AppendBytes("msg", message);
  return t.ChallengeScalar("e");
}

// One signature's challenge, its two points encoded by one EncodePoints
// call (one inversion).
Scalar Challenge(const Point& commit, const Point& pk, BytesView message) {
  const Bytes encoded = EncodePoints(std::vector<Point>{commit, pk});
  return Challenge(EncodedPoint(encoded, 0), EncodedPoint(encoded, 1),
                   message);
}

}  // namespace

SchnorrKeypair SchnorrKeyGen(Rng& rng) {
  SchnorrKeypair kp;
  kp.sk = Scalar::Random(rng);
  kp.pk = Point::BaseMul(kp.sk);
  return kp;
}

Bytes SchnorrSignature::Encode() const {
  Bytes out = commit.Encode();
  auto rb = response.ToBytes();
  out.insert(out.end(), rb.begin(), rb.end());
  return out;
}

std::optional<SchnorrSignature> SchnorrSignature::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  auto commit = Point::Decode(bytes.subspan(0, Point::kEncodedSize));
  auto response = Scalar::FromBytes(bytes.subspan(Point::kEncodedSize));
  if (!commit.has_value() || !response.has_value()) {
    return std::nullopt;
  }
  return SchnorrSignature{*commit, *response};
}

SchnorrSignature SchnorrSign(const Scalar& sk, const Point& pk,
                             BytesView message, Rng& rng) {
  Scalar k = Scalar::Random(rng);
  SchnorrSignature sig;
  sig.commit = Point::BaseMul(k);
  Scalar e = Challenge(sig.commit, pk, message);
  sig.response = k + e * sk;
  return sig;
}

bool SchnorrVerify(const Point& pk, BytesView message,
                   const SchnorrSignature& sig) {
  Scalar e = Challenge(sig.commit, pk, message);
  return Point::BaseMul(sig.response) == sig.commit + pk.Mul(e);
}

bool SchnorrVerifyBatch(std::span<const Point> pks,
                        std::span<const BytesView> messages,
                        std::span<const SchnorrSignature> sigs) {
  if (pks.size() != messages.size() || pks.size() != sigs.size()) {
    return false;
  }
  const size_t n = pks.size();
  if (n == 0) {
    return true;
  }
  if (n == 1) {
    return SchnorrVerify(pks[0], messages[0], sigs[0]);
  }

  // Derandomized batch coefficients γ_i from a hash of the whole statement
  // (every key, message, and signature), mirroring VerifyEncProofBatch.
  // pk_i at 2i and R_i at 2i + 1: one EncodePoints call serves this
  // transcript and every signature's challenge, and the MSM below.
  std::vector<Point> points;
  points.reserve(2 * n);
  for (size_t i = 0; i < n; i++) {
    points.push_back(pks[i]);
    points.push_back(sigs[i].commit);
  }
  const Bytes encoded = EncodePoints(points);
  Transcript t("atom/schnorr-batch/v1");
  t.AppendU64("n", n);
  for (size_t i = 0; i < n; i++) {
    t.AppendBytes("pk", EncodedPoint(encoded, 2 * i));
    t.AppendBytes("msg", messages[i]);
    t.AppendBytes("commit", EncodedPoint(encoded, 2 * i + 1));
    t.AppendScalar("s", sigs[i].response);
  }
  auto seed = t.ChallengeBytes("gamma-seed");
  Rng stream{BytesView(seed.data(), seed.size())};

  // Per-signature equation: s_i·G == R_i + e_i·pk_i. Random-combined:
  //   (Σ γ_i·s_i)·G == Σ (γ_i·e_i)·pk_i + Σ γ_i·R_i.
  Scalar lhs_scalar = Scalar::Zero();
  std::vector<Scalar> scalars;
  scalars.reserve(2 * n);
  for (size_t i = 0; i < n; i++) {
    Scalar gamma = Scalar::Random(stream);
    Scalar e = Challenge(EncodedPoint(encoded, 2 * i + 1),
                         EncodedPoint(encoded, 2 * i), messages[i]);
    lhs_scalar = lhs_scalar + gamma * sigs[i].response;
    scalars.push_back(gamma * e);
    scalars.push_back(gamma);
  }
  Point rhs = MultiScalarMul(points, scalars);
  return Point::BaseMul(lhs_scalar) == rhs;
}

}  // namespace atom
