// Verifiable shuffle of ElGamal ciphertext batches.
//
// This implements ShufProof from the paper's interface (§2.3): rerandomize a
// batch of ciphertexts under the group key, permute it, and produce a NIZK
// that the output is a permuted rerandomization of the input. The paper's
// prototype uses Neff's scheme [59]; we implement the Terelius–Wikström
// shuffle argument (the scheme behind Verificatum/CHVote), which has the
// same interface, the same security properties (sound + honest-verifier
// zero-knowledge under DDH/Pedersen binding), and the same Θ(1)
// exponentiations-per-ciphertext cost for both prover and verifier. See
// DESIGN.md "Substitutions".
//
// Statement proved, for inputs e and outputs ẽ with secret permutation π and
// rerandomizers r̃: ẽ[i] = e[π(i)] + Enc_pk(0; r̃[i]). The argument:
//  1. Pedersen-commits to π (c[j] = r[j]·G + H[π⁻¹(j)]).
//  2. Derives per-element challenges u[j] (Fiat-Shamir round 1).
//  3. A commitment chain ĉ and four sigma relations prove that the
//     committed matrix is a permutation matrix (sum + product checks, the
//     Terelius–Wikström lemma) and that Σ u'[i]·ẽ[i] - Σ u[j]·e[j] lies in
//     the rerandomization subspace (witness r').
//
// Messages in Atom are vectors of L component ciphertexts ("wide"
// ciphertexts); one proof binds all components under a single permutation by
// repeating only the ciphertext-relation (REL4) per component.
#ifndef SRC_CRYPTO_SHUFFLE_H_
#define SRC_CRYPTO_SHUFFLE_H_

#include <optional>
#include <span>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/msm_check.h"
#include "src/crypto/p256.h"
#include "src/util/rng.h"

namespace atom {

// batch[i] is message i's vector of component ciphertexts; all vectors must
// have equal length L >= 1 and Y = ⊥ on every component.
using CiphertextBatch = std::vector<ElGamalCiphertextVec>;

// True when `batch` has the shape above. ShuffleBatch and ShuffleAndProve
// require it (they abort the process otherwise), so a batch received from a
// peer is checked with this first.
bool IsShuffleInput(const CiphertextBatch& batch);

// Uniformly random permutation of {0..n-1} (Fisher-Yates).
std::vector<uint32_t> RandomPermutation(size_t n, Rng& rng);

// Plain (unproven) shuffle: rerandomizes every component under pk and
// applies a fresh random permutation. Used by the trap variant, where
// correctness is enforced by traps instead of NIZKs. If `perm_out` /
// `rands_out` are non-null they receive the witnesses (for ShuffleProve or
// the blame protocol). `workers` parallelizes the rerandomizations.
// The Point overload transparently builds a FixedBaseTable for pk when the
// batch is large enough to amortize the build (n·l >= 16 rerandomizations);
// callers that already hold a cached table use the table overload and skip
// even that. Outputs are identical for identical rng state either way.
CiphertextBatch ShuffleBatch(const Point& pk, const CiphertextBatch& input,
                             Rng& rng,
                             std::vector<uint32_t>* perm_out = nullptr,
                             std::vector<std::vector<Scalar>>* rands_out =
                                 nullptr,
                             size_t workers = 1);
CiphertextBatch ShuffleBatch(const FixedBaseTable& pk,
                             const CiphertextBatch& input, Rng& rng,
                             std::vector<uint32_t>* perm_out = nullptr,
                             std::vector<std::vector<Scalar>>* rands_out =
                                 nullptr,
                             size_t workers = 1);

struct ShuffleProof {
  std::vector<Point> perm_commit;   // c[j], one per message
  std::vector<Point> chain_commit;  // ĉ[i]
  Point t1, t2, t3;                 // sigma commitments for REL1..REL3
  std::vector<Point> t4a, t4b;      // REL4 commitments, one pair per component
  std::vector<Point> t_hat;         // chain-step commitments
  Scalar s1, s2, s3;                // sigma responses
  std::vector<Scalar> s4;           // REL4 responses, one per component
  std::vector<Scalar> s_hat;        // chain-step responses
  std::vector<Scalar> s_prime;      // permuted-challenge responses

  Bytes Encode() const;
  static std::optional<ShuffleProof> Decode(BytesView bytes);
};

struct ShuffleResult {
  CiphertextBatch output;
  ShuffleProof proof;
};

// Shuffles `input` under `pk` and proves it. `workers` parallelizes the
// point arithmetic (rerandomization, per-element commitments, the t3/t4
// MSMs). The commitment chain is sequential only in its scalars: each
// link ĉ[i] is computed in closed form as R[i]·G + U[i]·H from two
// fixed-base tables.
ShuffleResult ShuffleAndProve(const Point& pk, const CiphertextBatch& input,
                              Rng& rng, size_t workers = 1);
ShuffleResult ShuffleAndProve(const FixedBaseTable& pk,
                              const CiphertextBatch& input, Rng& rng,
                              size_t workers = 1);

// Verifies a chain of shuffles under pk: proofs[s] shows that
// *batches[s + 1] is a permuted rerandomization of *batches[s], so
// batches.size() == proofs.size() + 1 >= 2 and every batch has the same
// shape. Each proof's four sigma relations and n chain-step equations are
// folded with weights hashed from its own transcript; the folded proofs,
// scaled by OuterWeights (src/crypto/msm_check.h), make one BaseMul plus
// one MSM, split across `workers`. A batch between two proofs enters that
// MSM once, as do H, the H[i] and pk: k proofs take 2(k+1)ln + k(3n + 2l
// + 3) + n + 2 points instead of k(4n + 4ln + 2l + 5).
bool VerifyShuffleChain(const Point& pk,
                        std::span<const CiphertextBatch* const> batches,
                        std::span<const ShuffleProof> proofs,
                        size_t workers = 1);

// The chain of one proof: `output` is a permuted rerandomization of
// `input` under pk.
bool VerifyShuffle(const Point& pk, const CiphertextBatch& input,
                   const CiphertextBatch& output, const ShuffleProof& proof,
                   size_t workers = 1);

// VerifyShuffleChain in the two parts a check over more proofs runs
// (a NIZK hop's, CheckHopProofs in src/core/group_runtime.h): Prepare
// checks the chain's shape and recomputes every proof's challenges and
// weight seed; once every proof of the check is prepared, AddTo adds proof
// s's folded equation scaled by outer[s]. The batches and proofs passed to
// Prepare must outlive the object and the check; batch points enter the
// check with MsmCheck::AddShared.
class ShuffleChainCheck {
 public:
  static std::optional<ShuffleChainCheck> Prepare(
      const Point& pk, std::span<const CiphertextBatch* const> batches,
      std::span<const ShuffleProof> proofs);

  std::span<const WeightSeed> seeds() const { return seeds_; }
  void AddTo(std::span<const Scalar> outer, MsmCheck& check) const;
  // The most terms AddTo adds, for MsmCheck::Reserve.
  size_t MaxTerms() const;

 private:
  ShuffleChainCheck() = default;

  Point pk_;
  std::span<const CiphertextBatch* const> batches_;
  std::span<const ShuffleProof> proofs_;
  size_t n_ = 0, l_ = 0;
  // Per proof: the Fiat-Shamir challenges u[j] and c, and the weight seed.
  std::vector<std::vector<Scalar>> u_;
  std::vector<Scalar> challenges_;
  std::vector<WeightSeed> seeds_;
};

}  // namespace atom

#endif  // SRC_CRYPTO_SHUFFLE_H_
