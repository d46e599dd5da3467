#include "src/crypto/msm_check.h"

#include "src/crypto/transcript.h"
#include "src/util/parallel.h"

namespace atom {
namespace {

// MultiScalarMul split into `workers` chunks run with ParallelFor.
Point ParallelMsm(std::span<const Point> points,
                  std::span<const Scalar> scalars, size_t workers) {
  if (workers <= 1 || points.size() < 64) {
    return MultiScalarMul(points, scalars);
  }
  size_t chunks = workers;
  size_t chunk_size = (points.size() + chunks - 1) / chunks;
  std::vector<Point> partial(chunks, Point::Infinity());
  ParallelFor(workers, chunks, [&](size_t w) {
    size_t lo = w * chunk_size;
    size_t hi = std::min(points.size(), lo + chunk_size);
    if (lo < hi) {
      partial[w] = MultiScalarMul(points.subspan(lo, hi - lo),
                                  scalars.subspan(lo, hi - lo));
    }
  });
  Point acc = Point::Infinity();
  for (const Point& p : partial) {
    acc = acc + p;
  }
  return acc;
}

}  // namespace

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
  return Point::BaseMul(g_) == ParallelMsm(points_, scalars_, workers);
}

}  // namespace atom
