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
// combination test (Bellare-Garay-Rabin): one BaseMul plus one MSM
// (MultiScalarMul) per batch. ReEncProofs are only ever verified in chains
// of batches (VerifyReEncProofBatch is the one-step chain,
// VerifyReEncProof the one-claim batch), and a NIZK hop adds its chain to
// the one check that also holds its shuffle proofs (src/crypto/
// msm_check.h); EncProof vectors switch to the batch test from 2 proofs up. EncProofs are proved one at a time; a
// server's ReEncProofs one step at a time, with one batch encoding of all
// the step's challenge transcripts.
#ifndef SRC_CRYPTO_SIGMA_H_
#define SRC_CRYPTO_SIGMA_H_

#include <optional>
#include <span>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/msm_check.h"
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
// test: one MSM over 2N points instead of 2N scalar multiplications, ~25%
// cheaper per proof at N = 3 and more as N grows; entry groups verify
// every user's proofs. Coefficients are derived by hashing the full
// statement (derandomized batch test), so a batch containing any invalid
// proof is rejected except with negligible probability. VerifyEncProofVec
// takes this path for every vector of two or more proofs.
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

// One ReEnc statement and its proof. The claim refers to its parts; they
// must outlive the call it is passed to.
struct ReEncClaim {
  const Point* next_pk;  // nullptr at the exit layer
  const ElGamalCiphertext& input;   // as received (Y possibly ⊥)
  const ElGamalCiphertext& output;
  const ReEncProof& proof;
};

// The prover's secrets for one statement: the rewrap witness r' (zero at
// the exit layer) and the proof nonces kx, kr.
struct ReEncWitness {
  Scalar rewrap;
  Scalar kx, kr;
};

// The prover, in the two parts a server's reencryption step runs
// (ReEncStep, src/core/group_runtime.h): the commitments of each proof from
// products the step computes for all its components at once on the lane
// kernel (src/crypto/lanes.h), beside the decryption share x·Y that comes
// from the same table of Y as kx·Y, then every challenge and response of
// the step at once.
//
// CommitReEncProof: a1 = kx·G, a2 = kr·G and a3 = kr·N - kx·Y, where Y is
// the normalized input's and N = next_pk (kr_n is null at the exit layer,
// where a3 has no N term). zx, zr are left for CompleteReEncProofs.
ReEncProof CommitReEncProof(const Point& kx_g, const Point& kr_g,
                            const Point& kx_y, const Point* kr_n);

// Completes claims[i].proof, committed with witnesses[i]: the challenges of
// all claims from one EncodePoints over their transcripts, then
// zx = kx + e·server_sk and zr = kr + e·r'.
std::vector<ReEncProof> CompleteReEncProofs(
    const Scalar& server_sk, const Point& server_pk,
    std::span<const ReEncClaim> claims,
    std::span<const ReEncWitness> witnesses);

// The one-claim step: draws kx then kr from `rng` and proves that `output`
// is ReEnc of `input` (as received; the Y normalization Y ← R, R ← identity
// is recomputed by prover and verifier alike). `next_table`, when given,
// must be N's FixedBaseTable; it replaces a variable-base kr·N (same proof
// bytes).
ReEncProof MakeReEncProof(const Scalar& server_sk, const Point& server_pk,
                          const Point* next_pk, const ElGamalCiphertext& input,
                          const ElGamalCiphertext& output,
                          const Scalar& rewrap_randomness, Rng& rng,
                          const FixedBaseTable* next_table = nullptr);

// Verifies a chain of reencryption steps: steps[s] holds step s's claims,
// all proved under server_pks[s]. Every step has as many claims, claim j
// of each step reencrypts the same ciphertext, and its Y carries through
// every step unchanged (checked per claim); a chain that breaks any of
// this is rejected. Each step's three relations per claim are folded with
// weights hashed from every challenge and response of the step; the folded
// steps, scaled by OuterWeights (src/crypto/msm_check.h), make one BaseMul
// plus one MSM, split across `workers`, over 5n per step plus n Y's plus
// the distinct server and next_pk objects.
bool VerifyReEncChain(std::span<const Point> server_pks,
                      std::span<const std::span<const ReEncClaim>> steps,
                      size_t workers = 1);

// The chain of one step: every claim against one server key, in one
// BaseMul plus one MSM over 6n + (next_pk objects) + 1 points. Accepts
// the empty batch. A false result blames the batch, not a claim.
bool VerifyReEncProofBatch(const Point& server_pk,
                           std::span<const ReEncClaim> claims);

// VerifyReEncChain in the two parts a check over more proofs runs (a NIZK
// hop's, CheckHopProofs in src/core/group_runtime.h): Prepare checks the
// chain's shape and recomputes every step's challenges and weight seed;
// once every proof of the check is prepared, AddTo adds step s's folded
// equation scaled by outer[s]. The keys and claims passed to Prepare must
// outlive the object and the check. Y's, next_pks and server keys enter
// the check with MsmCheck::AddShared, claim j's Y as the object its
// first-step input holds it in (the r of a Y = ⊥ input), so a Y that is
// also a shuffled batch's r enters the check once.
class ReEncChainCheck {
 public:
  static std::optional<ReEncChainCheck> Prepare(
      std::span<const Point> server_pks,
      std::span<const std::span<const ReEncClaim>> steps);

  std::span<const WeightSeed> seeds() const { return seeds_; }
  void AddTo(std::span<const Scalar> outer, MsmCheck& check) const;
  // The most terms AddTo adds, for MsmCheck::Reserve.
  size_t MaxTerms() const;

 private:
  ReEncChainCheck() = default;

  std::span<const Point> server_pks_;
  std::span<const std::span<const ReEncClaim>> steps_;
  std::vector<const Point*> ys_;  // claim j's Y
  // Per step: every claim's challenge, and the weight seed.
  std::vector<std::vector<Scalar>> challenges_;
  std::vector<WeightSeed> seeds_;
};

// The one-claim batch.
bool VerifyReEncProof(const Point& server_pk, const Point* next_pk,
                      const ElGamalCiphertext& input,
                      const ElGamalCiphertext& output,
                      const ReEncProof& proof);

}  // namespace atom

#endif  // SRC_CRYPTO_SIGMA_H_
