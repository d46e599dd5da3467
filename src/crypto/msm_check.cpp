#include "src/crypto/msm_check.h"

#include "src/crypto/transcript.h"

namespace atom {

std::vector<Scalar> OuterWeights(std::span<const WeightSeed> seeds) {
  Transcript t("atom/proof-chain-weights/v1");
  t.AppendU64("proofs", seeds.size());
  for (const WeightSeed& seed : seeds) {
    t.AppendBytes("seed", BytesView(seed.data(), seed.size()));
  }
  auto outer = t.ChallengeBytes("outer-weights");
  Rng stream{BytesView(outer.data(), outer.size())};
  std::vector<Scalar> weights(seeds.size());
  for (Scalar& w : weights) {
    w = Scalar::Random(stream);
  }
  return weights;
}

void MsmCheck::Reserve(size_t terms) {
  points_.reserve(terms);
  scalars_.reserve(terms);
}

void MsmCheck::Add(const Point& p, const Scalar& s) {
  points_.push_back(p);
  scalars_.push_back(s);
}

void MsmCheck::AddShared(const Point& p, const Scalar& s) {
  auto [it, fresh] = shared_.try_emplace(&p, points_.size());
  if (fresh) {
    Add(p, s);
  } else {
    scalars_[it->second] = scalars_[it->second] + s;
  }
}

bool MsmCheck::Holds(size_t workers) const {
  return Point::BaseMul(g_) == MultiScalarMul(points_, scalars_, workers);
}

}  // namespace atom
