// Schnorr signatures over P-256. Server identities in Atom are public keys
// (§2.1: "a cryptographic public key defines the identity of each server");
// the directory authority verifies signed registrations, protocol messages
// between servers can be authenticated with these keys, and clients sign
// their streamed submissions to the gateway.
//
// Verification comes in two shapes: SchnorrVerify checks one signature with
// a fixed-base mult plus one generic mult, and SchnorrVerifyBatch folds any
// number of (pk, message, signature) triples into a single multi-scalar
// multiplication (Straus at intake span sizes) via a derandomized random
// linear combination (the same construction as sigma.cpp's
// VerifyEncProofBatch) — the gateway's per-shard pump uses it so signature
// checking amortizes across a whole drained intake span.
#ifndef SRC_CRYPTO_SCHNORR_H_
#define SRC_CRYPTO_SCHNORR_H_

#include <optional>
#include <span>

#include "src/crypto/p256.h"
#include "src/util/rng.h"

namespace atom {

struct SchnorrKeypair {
  Scalar sk;
  Point pk;
};

SchnorrKeypair SchnorrKeyGen(Rng& rng);

struct SchnorrSignature {
  Point commit;     // R = k·G
  Scalar response;  // s = k + e·x, e = H(R ‖ pk ‖ msg)

  static constexpr size_t kEncodedSize = Point::kEncodedSize + 32;
  Bytes Encode() const;
  static std::optional<SchnorrSignature> Decode(BytesView bytes);
};

SchnorrSignature SchnorrSign(const Scalar& sk, const Point& pk,
                             BytesView message, Rng& rng);

bool SchnorrVerify(const Point& pk, BytesView message,
                   const SchnorrSignature& sig);

// Batch verification: true iff EVERY signature verifies. Spans must be the
// same length. The per-signature equations s_i·G == R_i + e_i·pk_i are
// random-linear-combined with coefficients γ_i derived from a hash of the
// whole statement (derandomized, so a forger cannot pick signatures after
// seeing the coefficients) and checked with one MSM over 2n points — ~1.6x
// cheaper than n independent verifications at n = 8
// (bench_table3_primitives gates this). An empty batch is
// vacuously true; n == 1 falls through to SchnorrVerify. On failure the
// batch only says "some signature is bad": callers that need the culprit
// re-verify individually.
bool SchnorrVerifyBatch(std::span<const Point> pks,
                        std::span<const BytesView> messages,
                        std::span<const SchnorrSignature> sigs);

}  // namespace atom

#endif  // SRC_CRYPTO_SCHNORR_H_
