// One check for many proofs: the verification equations of the NIZKs in
// shuffle.h and sigma.h, summed into a single g·G == Σ s_i·P_i test.
//
// Each verifier folds its own relations with weights drawn from its own
// transcript (the small-exponent random-linear-combination test of
// Bellare-Garay-Rabin). A chain of proofs — the k shuffle steps and k
// reencryption steps of a NIZK hop — sums those folded equations into one
// MsmCheck, proof i scaled by an outer weight ρ_i, and pays one BaseMul
// and one MSM for all of them. The ρ_i are hashed from every proof's weight
// seed, so no prover can predict its proof's scale before every proof of
// the check is fixed, and an error in one proof cannot be offset by one in
// another. A point that several proofs share (a batch that is one step's
// output and the next step's input, a ciphertext's Y, a neighbour key)
// enters the MSM once with its coefficients summed.
#ifndef SRC_CRYPTO_MSM_CHECK_H_
#define SRC_CRYPTO_MSM_CHECK_H_

#include <array>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/crypto/p256.h"

namespace atom {

// The seed a proof's own batch weights are drawn from: a hash over its
// statement, commitments and responses.
using WeightSeed = std::array<uint8_t, 32>;

// One outer weight per seed, from a transcript over all of them.
std::vector<Scalar> OuterWeights(std::span<const WeightSeed> seeds);

// The accumulated equation g·G == Σ scalars[i]·points[i].
class MsmCheck {
 public:
  void AddG(const Scalar& s) { g_ = g_ + s; }
  // s·p as a term of its own.
  void Add(const Point& p, const Scalar& s);
  // s·p, summed into the term of every earlier AddShared call on the same
  // object. `p` must stay alive and unchanged until Holds returns.
  void AddShared(const Point& p, const Scalar& s);

  // Room for `terms` Add/AddShared terms, so a caller that knows its term
  // count grows the vectors once.
  void Reserve(size_t terms);

  // BaseMul(g) == Σ scalars[i]·points[i], the MSM run by MultiScalarMul
  // on `workers` threads.
  bool Holds(size_t workers = 1) const;

 private:
  Scalar g_;
  std::vector<Point> points_;
  std::vector<Scalar> scalars_;
  std::unordered_map<const Point*, size_t> shared_;
};

}  // namespace atom

#endif  // SRC_CRYPTO_MSM_CHECK_H_
