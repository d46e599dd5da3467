// Atom's rerandomizable ElGamal variant with out-of-order decryption and
// reencryption (paper Appendix A).
//
// A ciphertext is a triple (R, c, Y):
//   R holds the randomness accumulated for the *next* group's key,
//   c is the blinded message,
//   Y holds the randomness the *current* group decrypts against (⊥ before
//     the first ReEnc of a hop; we encode ⊥ as the identity point, which a
//     real Y = rG hits with negligible probability).
//
// The Y/R split is what lets a chain of servers simultaneously strip their
// own layer (against Y) and add a layer for the next group (into R): a user
// encrypts only to her entry group, and each group rewraps the batch for a
// successor the user never knew about (§4.2).
#ifndef SRC_CRYPTO_ELGAMAL_H_
#define SRC_CRYPTO_ELGAMAL_H_

#include <optional>
#include <span>
#include <vector>

#include "src/crypto/p256.h"
#include "src/util/rng.h"

namespace atom {

struct ElGamalKeypair {
  Scalar sk;
  Point pk;
};

// Fresh keypair: sk random, pk = sk * G.
ElGamalKeypair ElGamalKeyGen(Rng& rng);

struct ElGamalCiphertext {
  Point r;  // randomness toward the next key
  Point c;  // blinded message
  Point y;  // randomness toward the current key; identity encodes ⊥

  bool YIsNull() const { return y.IsInfinity(); }

  // 3 * 33 bytes.
  static constexpr size_t kEncodedSize = 3 * Point::kEncodedSize;
  Bytes Encode() const;
  static std::optional<ElGamalCiphertext> Decode(BytesView bytes);

  bool operator==(const ElGamalCiphertext& o) const {
    return r == o.r && c == o.c && y == o.y;
  }
};

// Encrypts point-message m under pk: (rG, m + r·pk, ⊥). If `randomness_out`
// is non-null the encryption randomness r is returned for proof generation.
ElGamalCiphertext ElGamalEncrypt(const Point& pk, const Point& m, Rng& rng,
                                 Scalar* randomness_out = nullptr);
// Table variant for hot paths that reuse one pk across a batch (identical
// output for identical rng state; the table must be built from pk).
ElGamalCiphertext ElGamalEncrypt(const FixedBaseTable& pk, const Point& m,
                                 Rng& rng, Scalar* randomness_out = nullptr);

// Decrypts (requires Y = ⊥): m = c - sk·R. Returns nullopt when Y ≠ ⊥.
std::optional<Point> ElGamalDecrypt(const Scalar& sk,
                                    const ElGamalCiphertext& ct);

// Rerandomizes under pk (requires Y = ⊥): (R + r'G, c + r'·pk, ⊥).
// Returns nullopt when Y ≠ ⊥. `randomness_out` as in ElGamalEncrypt.
std::optional<ElGamalCiphertext> ElGamalRerandomize(
    const Point& pk, const ElGamalCiphertext& ct, Rng& rng,
    Scalar* randomness_out = nullptr);
std::optional<ElGamalCiphertext> ElGamalRerandomize(
    const FixedBaseTable& pk, const ElGamalCiphertext& ct, Rng& rng,
    Scalar* randomness_out = nullptr);

// The out-of-order decrypt-and-reencrypt step (Appendix A ReEnc):
//   if Y = ⊥: Y ← R, R ← identity       (first server of a hop)
//   strip:    c ← c - sk·Y
//   rewrap:   r' random, R ← R + r'G, c ← c + r'·next_pk
// Pass next_pk = nullptr for the final hop (pure staged decryption, r' = 0).
// `randomness_out` receives r' for proof generation.
ElGamalCiphertext ElGamalReEnc(const Scalar& sk, const Point* next_pk,
                               const ElGamalCiphertext& ct, Rng& rng,
                               Scalar* randomness_out = nullptr);
// Marks the hop complete: resets Y to ⊥ before forwarding to the next group
// (last server of a group does this; Appendix A).
ElGamalCiphertext ElGamalFinalizeHop(const ElGamalCiphertext& ct);

// Vector helpers: Atom messages longer than one embedded point are vectors
// of independent ciphertexts, with every operation applied per component.
using ElGamalCiphertextVec = std::vector<ElGamalCiphertext>;

ElGamalCiphertextVec ElGamalEncryptVec(const Point& pk,
                                       std::span<const Point> ms, Rng& rng,
                                       std::vector<Scalar>* randomness_out =
                                           nullptr);
ElGamalCiphertextVec ElGamalEncryptVec(const FixedBaseTable& pk,
                                       std::span<const Point> ms, Rng& rng,
                                       std::vector<Scalar>* randomness_out =
                                           nullptr);

std::optional<std::vector<Point>> ElGamalDecryptVec(
    const Scalar& sk, const ElGamalCiphertextVec& cts);

Bytes EncodeCiphertextVec(const ElGamalCiphertextVec& cts);
// The EncodeCiphertextVec encodings of `vecs`, concatenated, with one
// field inversion for all of them.
Bytes EncodeCiphertextVecs(std::span<const ElGamalCiphertextVec> vecs);
std::optional<ElGamalCiphertextVec> DecodeCiphertextVec(BytesView bytes);

}  // namespace atom

#endif  // SRC_CRYPTO_ELGAMAL_H_
