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
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/p256.h"
#include "src/util/rng.h"

namespace atom {

// batch[i] is message i's vector of component ciphertexts; all vectors must
// have equal length L >= 1 and Y = ⊥ on every component.
using CiphertextBatch = std::vector<ElGamalCiphertextVec>;

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
// data-parallel parts (rerandomization, per-element commitments); the
// commitment chain itself is inherently sequential, which is why the NIZK
// variant's multi-core speed-up is sub-linear (paper Fig. 7).
ShuffleResult ShuffleAndProve(const Point& pk, const CiphertextBatch& input,
                              Rng& rng, size_t workers = 1);
ShuffleResult ShuffleAndProve(const FixedBaseTable& pk,
                              const CiphertextBatch& input, Rng& rng,
                              size_t workers = 1);

// Verifies that `output` is a permuted rerandomization of `input` under pk.
// The four sigma relations and the n chain-step equations are folded with
// weights hashed from the transcript over every response into one BaseMul
// plus one MSM over 4n + 4ln + 2l + 5 points; `workers` splits that MSM.
bool VerifyShuffle(const Point& pk, const CiphertextBatch& input,
                   const CiphertextBatch& output, const ShuffleProof& proof,
                   size_t workers = 1);

}  // namespace atom

#endif  // SRC_CRYPTO_SHUFFLE_H_
