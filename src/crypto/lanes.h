// Secret-scalar products on a fixed schedule, run several lanes at a time,
// and the public-scalar Pippenger MSM on the same lanes.
//
// One lockstep kernel (src/crypto/lane_kernel.inc) computes every product
// of a secret scalar on a hop's hot path, and every MSM of MultiScalarMul
// from its Straus crossover up (a NIZK hop's proof check). It is written
// once, generic over a field-lane backend, and compiled twice:
//   - portable: the fp256 field, one lane per vector. The oracle, and the
//     backend of every host without AVX-512 IFMA.
//   - ifma: an 8-lane radix-2^52 field on AVX-512 IFMA, compiled with
//     function-level target attributes only, so no shared inline function
//     is ever emitted with AVX-512 instructions.
// ActiveLanes() picks IFMA once per process when CPUID reports AVX512F and
// AVX512IFMA and the OS has enabled the opmask and ZMM state (XCR0), and the
// portable backend everywhere else. There is no setting.
//
// Four entry points. Three take secret scalars, and their schedule does
// not depend on any scalar or base: regular signed recodings with a fixed
// digit count (odd digits for the variable-base and MSM entry points, zero
// digits handled by a masked select for fixed-base), every table read is a
// masked scan of the whole row, and the exceptional additions (an identity
// accumulator, P = -Q, P = Q) are resolved by masked selects.
// tests/lanes_test.cpp checks this with a recording backend. Each splits
// its lanes into 8-lane chunks under ParallelFor, and a chunk with fewer
// than kLaneMinIfma lanes runs on the portable backend (cheaper than a
// mostly idle 8-lane vector).
//
// The fourth, pippenger, is the only variable-time one: its lanes are the
// windows of one MSM, and which buckets it touches follows the digits. It
// is for public scalars only (verification equations), and complete for
// any bases, attacker-chosen ones included. MultiScalarMul calls it.
#ifndef SRC_CRYPTO_LANES_H_
#define SRC_CRYPTO_LANES_H_

#include <cstddef>
#include <span>

#include "src/crypto/p256.h"

namespace atom {

// Lanes per kernel chunk: the IFMA vector width. The portable backend
// runs a chunk as eight one-lane vectors.
inline constexpr size_t kLaneChunk = 8;

// One backend's entry points. Each accepts any number of lanes and runs
// them chunk by chunk on the calling thread.
struct LaneBackend {
  const char* name;
  // out[i] = table.base() · scalars[i].
  void (*fixed_base)(const FixedBaseTable& table,
                     std::span<const Scalar> scalars, std::span<Point> out);
  // outs[c][i] = bases[i] · columns[c][i], where a column of size 1 is one
  // scalar shared by every base. Every column shares one table per base.
  void (*variable_base)(std::span<const Point> bases,
                        std::span<const std::span<const Scalar>> columns,
                        std::span<const std::span<Point>> outs);
  // out[m] = Σ_t scalars[t] · bases[m·n + t] with n = scalars.size(): several
  // MSMs over one scalar vector, whose digits every lane shares.
  // Precondition: nobody who chose a base knows a relation between it and
  // the public offset R = HashToPoint("atom/lanes/msm-offset") that the
  // accumulator starts from, so no raw attacker input as a base. The
  // additions skip the P = Q case on that ground; a first base equal to R
  // under an odd scalar, or to -R under an even one, meets it in the first
  // window and the result is wrong
  // (P256.LaneMsmBaseRelatedToOffsetIsOutsideContract). Hash-derived
  // generators and points the caller rerandomized itself qualify.
  void (*msm)(std::span<const Point> bases, std::span<const Scalar> scalars,
              std::span<Point> out);
  // Σ scalars[t]·points[t] by Pippenger's buckets, lane j of each pass
  // running one window. Variable time: public scalars only. Complete:
  // identity points, zero scalars, repeated and cancelling bases, any
  // base at all.
  Point (*pippenger)(std::span<const Point> points,
                     std::span<const Scalar> scalars);
  // MultiScalarMul runs pippenger from this many live terms (nonzero
  // scalar, non-identity point), StrausMsm below.
  size_t pippenger_min_points;
};

const LaneBackend& PortableLanes();
// The IFMA backend, or nullptr when this build or this CPU has none.
const LaneBackend* IfmaLanes();
// IFMA when available, else portable; chosen once per process.
const LaneBackend& ActiveLanes();

// Chunks with fewer lanes run on the portable backend (derived in
// lanes.cpp from bench_table3_primitives' per-product rows).
extern const size_t kLaneMinIfma;
// Each backend's pippenger_min_points (derived in lanes.cpp from
// bench_table3_primitives' MSM rows).
extern const size_t kPippengerMinPortable;
extern const size_t kPippengerMinIfma;

// The dispatching entry points the hop uses: same contracts as
// LaneBackend, split across `workers`.
void FixedBaseMul(const FixedBaseTable& table, std::span<const Scalar> scalars,
                  std::span<Point> out, size_t workers = 1);
void VariableBaseMul(std::span<const Point> bases,
                     std::span<const std::span<const Scalar>> columns,
                     std::span<const std::span<Point>> outs,
                     size_t workers = 1);
// Same precondition as LaneBackend::msm: no base related to R by anyone.
void SharedDigitMsm(std::span<const Point> bases,
                    std::span<const Scalar> scalars, std::span<Point> out,
                    size_t workers = 1);
// out[i] = base·scalars[i]: FixedBaseMul on `table` (base's own) when there
// is one, else VariableBaseMul with `base` in every lane.
void SameBaseMul(const Point& base, const FixedBaseTable* table,
                 std::span<const Scalar> scalars, std::span<Point> out,
                 size_t workers = 1);

// The IFMA backend's field ops, for tests and benches: for each of the
// four 8-lane vectors c of x (x.size() == 32), x[c] = op(x[c], b) `reps`
// times over (Sqr and Neg ignore b, b.size() == 8). Elements are fp256
// Montgomery form, fully reduced. Returns false, leaving x alone, where
// IfmaLanes() is null.
enum class LaneFieldOp { kMul, kSqr, kAdd, kSub, kNeg };
bool IfmaFieldRun(LaneFieldOp op, std::span<U256> x, std::span<const U256> b,
                  int reps);

// The kernel's view of Point and FixedBaseTable internals.
struct LaneAccess {
  static void Jacobian(const Point& p, U256* x, U256* y, U256* z) {
    *x = p.x_;
    *y = p.y_;
    *z = p.z_;
  }
  static Point FromJacobian(const U256& x, const U256& y, const U256& z) {
    Point p;
    p.x_ = x;
    p.y_ = y;
    p.z_ = z;
    return p;
  }
  static const Point::Affine* Row(const FixedBaseTable& table, int window) {
    return table.table_[window];
  }
  static void BatchNormalize(std::span<const Point> in, Point::Affine* out) {
    Point::BatchNormalize(in, out);
  }
};

}  // namespace atom

#endif  // SRC_CRYPTO_LANES_H_
