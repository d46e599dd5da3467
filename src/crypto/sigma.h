// Sigma-protocol NIZKs (Fiat-Shamir in the random-oracle model):
//
//  * EncProof  — proof of knowledge of the encryption randomness of an
//    ElGamal ciphertext, bound to the entry group id (paper Appendix A).
//    Stops a malicious user from submitting a rerandomized copy of an honest
//    user's ciphertext (duplicate plaintexts at the exit would deanonymize
//    the honest sender, §3), and the gid binding stops replaying the same
//    (ciphertext, proof) pair at a different group.
//
//  * ReEncProof — proof that a server's decrypt-and-reencrypt step (Appendix
//    A ReEnc) was performed correctly w.r.t. its public key, extending the
//    Chaum-Pedersen proof of discrete-log equality with the rewrap witness.
//
// Proofs are non-malleable in the usual Fiat-Shamir sense: the full
// statement (keys, ciphertexts, context) is hashed into the challenge.
//
// Verification folds equations with the small-exponent random-linear-
// combination test (Bellare-Garay-Rabin): one BaseMul plus one Pippenger
// MSM per batch. ReEncProofs are only ever verified in batches
// (VerifyReEncProof is the one-claim batch); EncProofs switch to the batch
// test from 8 proofs up. Proving stays per proof.
#ifndef SRC_CRYPTO_SIGMA_H_
#define SRC_CRYPTO_SIGMA_H_

#include <optional>

#include "src/crypto/elgamal.h"
#include "src/crypto/p256.h"
#include "src/util/rng.h"

namespace atom {

// ---------------------------------------------------------------- EncProof

struct EncProof {
  Point commit;  // g^s
  Scalar u;      // s + t*r

  static constexpr size_t kEncodedSize = Point::kEncodedSize + 32;
  Bytes Encode() const;
  static std::optional<EncProof> Decode(BytesView bytes);
};

// Proves knowledge of r with ct.r = r*G, binding (pk, gid, ct).
EncProof MakeEncProof(const Point& pk, uint32_t gid,
                      const ElGamalCiphertext& ct, const Scalar& randomness,
                      Rng& rng);

bool VerifyEncProof(const Point& pk, uint32_t gid,
                    const ElGamalCiphertext& ct, const EncProof& proof);

// Per-component proofs for a vector ciphertext.
std::vector<EncProof> MakeEncProofVec(const Point& pk, uint32_t gid,
                                      const ElGamalCiphertextVec& cts,
                                      std::span<const Scalar> randomness,
                                      Rng& rng);
bool VerifyEncProofVec(const Point& pk, uint32_t gid,
                       const ElGamalCiphertextVec& cts,
                       std::span<const EncProof> proofs);

// Batch verification with the small-exponent random-linear-combination
// test: one Pippenger MSM instead of 2N scalar multiplications, several
// times faster for the entry groups, which verify every user's proofs.
// Coefficients are derived by hashing the full statement (derandomized
// batch test), so a batch containing any invalid proof is rejected except
// with negligible probability. VerifyEncProofVec switches to this path
// automatically for large batches.
bool VerifyEncProofBatch(const Point& pk, uint32_t gid,
                         const ElGamalCiphertextVec& cts,
                         std::span<const EncProof> proofs);

// -------------------------------------------------------------- ReEncProof

// Proof for the relation (witnesses x = server secret, r' = rewrap
// randomness; all other values public):
//   server_pk = x*G
//   out.r     = in.r + r'*G          (after the Y normalization)
//   out.c     = in.c - x*Y + r'*next_pk
// With next_pk = nullptr the rewrap terms vanish and this reduces to a
// Chaum-Pedersen equality proof for the staged decryption.
struct ReEncProof {
  Point a1, a2, a3;  // commitments for the three relations
  Scalar zx, zr;     // responses for the two witnesses

  static constexpr size_t kEncodedSize = 3 * Point::kEncodedSize + 2 * 32;
  Bytes Encode() const;
  static std::optional<ReEncProof> Decode(BytesView bytes);
};

// `input` is the ciphertext as received (Y possibly ⊥); the Y normalization
// (Y ← R, R ← identity) is recomputed by both prover and verifier.
// `next_table`, when given, must be next_pk's FixedBaseTable; it replaces
// the one variable-base multiplication by next_pk (same output bytes).
ReEncProof MakeReEncProof(const Scalar& server_sk, const Point& server_pk,
                          const Point* next_pk, const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const Scalar& rewrap_randomness, Rng& rng,
                          const FixedBaseTable* next_table = nullptr);

// One ReEnc statement and its proof. The claim refers to its parts; they
// must outlive the verification call.
struct ReEncClaim {
  const Point* next_pk;  // nullptr at the exit layer
  const ElGamalCiphertext& input;   // as received (Y possibly ⊥)
  const ElGamalCiphertext& output;
  const ReEncProof& proof;
};

// Verifies every claim against one server key. Each claim's Y must carry
// through unchanged (checked per claim); the three relations of all claims
// are then folded with weights hashed from every challenge and response
// into one BaseMul plus one MSM over 6n + (distinct next_pks) + 1 points.
// Accepts the empty batch. A false result blames the batch, not a claim.
bool VerifyReEncProofBatch(const Point& server_pk,
                           std::span<const ReEncClaim> claims);

// The one-claim batch.
bool VerifyReEncProof(const Point& server_pk, const Point* next_pk,
                      const ElGamalCiphertext& input,
                      const ElGamalCiphertext& output,
                      const ReEncProof& proof);

}  // namespace atom

#endif  // SRC_CRYPTO_SIGMA_H_
