#include "src/crypto/elgamal.h"

#include "src/util/serde.h"

namespace atom {

ElGamalKeypair ElGamalKeyGen(Rng& rng) {
  ElGamalKeypair kp;
  kp.sk = Scalar::Random(rng);
  kp.pk = Point::BaseMul(kp.sk);
  return kp;
}

Bytes ElGamalCiphertext::Encode() const {
  Bytes out;
  out.reserve(kEncodedSize);
  for (const Point* p : {&r, &c, &y}) {
    Bytes enc = p->Encode();
    out.insert(out.end(), enc.begin(), enc.end());
  }
  return out;
}

std::optional<ElGamalCiphertext> ElGamalCiphertext::Decode(BytesView bytes) {
  if (bytes.size() != kEncodedSize) {
    return std::nullopt;
  }
  ElGamalCiphertext ct;
  Point* fields[3] = {&ct.r, &ct.c, &ct.y};
  for (int i = 0; i < 3; i++) {
    auto p = Point::Decode(
        bytes.subspan(static_cast<size_t>(i) * Point::kEncodedSize,
                      Point::kEncodedSize));
    if (!p.has_value()) {
      return std::nullopt;
    }
    *fields[i] = *p;
  }
  return ct;
}

ElGamalCiphertext ElGamalEncrypt(const Point& pk, const Point& m, Rng& rng,
                                 Scalar* randomness_out) {
  Scalar r = Scalar::Random(rng);
  if (randomness_out != nullptr) {
    *randomness_out = r;
  }
  ElGamalCiphertext ct;
  ct.r = Point::BaseMul(r);
  ct.c = m + pk.Mul(r);
  ct.y = Point::Infinity();
  return ct;
}

ElGamalCiphertext ElGamalEncrypt(const FixedBaseTable& pk, const Point& m,
                                 Rng& rng, Scalar* randomness_out) {
  Scalar r = Scalar::Random(rng);
  if (randomness_out != nullptr) {
    *randomness_out = r;
  }
  ElGamalCiphertext ct;
  ct.r = Point::BaseMul(r);
  ct.c = m + pk.Mul(r);
  ct.y = Point::Infinity();
  return ct;
}

std::optional<Point> ElGamalDecrypt(const Scalar& sk,
                                    const ElGamalCiphertext& ct) {
  if (!ct.YIsNull()) {
    return std::nullopt;
  }
  return ct.c - ct.r.Mul(sk);
}

std::optional<ElGamalCiphertext> ElGamalRerandomize(
    const Point& pk, const ElGamalCiphertext& ct, Rng& rng,
    Scalar* randomness_out) {
  if (!ct.YIsNull()) {
    return std::nullopt;
  }
  Scalar r = Scalar::Random(rng);
  if (randomness_out != nullptr) {
    *randomness_out = r;
  }
  ElGamalCiphertext out;
  out.r = ct.r + Point::BaseMul(r);
  out.c = ct.c + pk.Mul(r);
  out.y = Point::Infinity();
  return out;
}

std::optional<ElGamalCiphertext> ElGamalRerandomize(
    const FixedBaseTable& pk, const ElGamalCiphertext& ct, Rng& rng,
    Scalar* randomness_out) {
  if (!ct.YIsNull()) {
    return std::nullopt;
  }
  Scalar r = Scalar::Random(rng);
  if (randomness_out != nullptr) {
    *randomness_out = r;
  }
  ElGamalCiphertext out;
  out.r = ct.r + Point::BaseMul(r);
  out.c = ct.c + pk.Mul(r);
  out.y = Point::Infinity();
  return out;
}

ElGamalCiphertext ElGamalReEnc(const Scalar& sk, const Point* next_pk,
                               const ElGamalCiphertext& ct, Rng& rng,
                               Scalar* randomness_out) {
  ElGamalCiphertext out = ct;
  if (out.YIsNull()) {
    out.y = out.r;
    out.r = Point::Infinity();
  }
  // Strip this server's layer against Y.
  out.c = out.c - out.y.Mul(sk);
  // Rewrap toward the next group's key.
  if (next_pk != nullptr) {
    Scalar r = Scalar::Random(rng);
    if (randomness_out != nullptr) {
      *randomness_out = r;
    }
    out.r = out.r + Point::BaseMul(r);
    out.c = out.c + next_pk->Mul(r);
  } else if (randomness_out != nullptr) {
    *randomness_out = Scalar::Zero();
  }
  return out;
}

ElGamalCiphertext ElGamalFinalizeHop(const ElGamalCiphertext& ct) {
  ElGamalCiphertext out = ct;
  out.y = Point::Infinity();
  return out;
}

ElGamalCiphertextVec ElGamalEncryptVec(const Point& pk,
                                       std::span<const Point> ms, Rng& rng,
                                       std::vector<Scalar>* randomness_out) {
  ElGamalCiphertextVec out;
  out.reserve(ms.size());
  if (randomness_out != nullptr) {
    randomness_out->clear();
    randomness_out->reserve(ms.size());
  }
  for (const Point& m : ms) {
    Scalar r;
    out.push_back(ElGamalEncrypt(pk, m, rng, &r));
    if (randomness_out != nullptr) {
      randomness_out->push_back(r);
    }
  }
  return out;
}

ElGamalCiphertextVec ElGamalEncryptVec(const FixedBaseTable& pk,
                                       std::span<const Point> ms, Rng& rng,
                                       std::vector<Scalar>* randomness_out) {
  ElGamalCiphertextVec out;
  out.reserve(ms.size());
  if (randomness_out != nullptr) {
    randomness_out->clear();
    randomness_out->reserve(ms.size());
  }
  for (const Point& m : ms) {
    Scalar r;
    out.push_back(ElGamalEncrypt(pk, m, rng, &r));
    if (randomness_out != nullptr) {
      randomness_out->push_back(r);
    }
  }
  return out;
}

std::optional<std::vector<Point>> ElGamalDecryptVec(
    const Scalar& sk, const ElGamalCiphertextVec& cts) {
  std::vector<Point> out;
  out.reserve(cts.size());
  for (const auto& ct : cts) {
    auto m = ElGamalDecrypt(sk, ct);
    if (!m.has_value()) {
      return std::nullopt;
    }
    out.push_back(*m);
  }
  return out;
}

Bytes EncodeCiphertextVec(const ElGamalCiphertextVec& cts) {
  return EncodeCiphertextVecs(std::span(&cts, 1));
}

Bytes EncodeCiphertextVecs(std::span<const ElGamalCiphertextVec> vecs) {
  // Flatten to one point span so every vector shares a single field
  // inversion (EncodePoints); the byte layout is unchanged.
  std::vector<Point> flat;
  for (const auto& cts : vecs) {
    for (const auto& ct : cts) {
      flat.insert(flat.end(), {ct.r, ct.c, ct.y});
    }
  }
  const Bytes points = EncodePoints(flat);
  ByteWriter w;
  size_t offset = 0;
  for (const auto& cts : vecs) {
    const size_t bytes = cts.size() * ElGamalCiphertext::kEncodedSize;
    w.U32(static_cast<uint32_t>(cts.size()));
    w.Raw(BytesView(points).subspan(offset, bytes));
    offset += bytes;
  }
  return w.Take();
}

std::optional<ElGamalCiphertextVec> DecodeCiphertextVec(BytesView bytes) {
  ByteReader r(bytes);
  auto n = r.U32();
  // A valid count never exceeds the ciphertexts the buffer can hold, so a
  // fuzzed length prefix cannot force a huge allocation.
  if (!n.has_value() || *n > r.remaining() / ElGamalCiphertext::kEncodedSize) {
    return std::nullopt;
  }
  ElGamalCiphertextVec out;
  out.reserve(*n);
  for (uint32_t i = 0; i < *n; i++) {
    auto raw = r.Raw(ElGamalCiphertext::kEncodedSize);
    if (!raw.has_value()) {
      return std::nullopt;
    }
    auto ct = ElGamalCiphertext::Decode(BytesView(*raw));
    if (!ct.has_value()) {
      return std::nullopt;
    }
    out.push_back(*ct);
  }
  if (!r.Done()) {
    return std::nullopt;
  }
  return out;
}

}  // namespace atom
