#include "src/crypto/lanes.h"

#include <algorithm>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "src/crypto/lane_portable.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace atom {

namespace lane_portable {
#define ATOM_LANE_FN inline
#include "src/crypto/lane_kernel.inc"
#undef ATOM_LANE_FN

}  // namespace lane_portable

const LaneBackend& PortableLanes() {
  using Kernel = lane_portable::LaneKernel<PortableField>;
  static const LaneBackend backend{
      "portable",        Kernel::FixedBaseAll, Kernel::VariableBaseAll,
      Kernel::MsmAll,    Kernel::Pippenger,    kPippengerMinPortable};
  return backend;
}

const LaneBackend& ActiveLanes() {
  static const LaneBackend& active =
      IfmaLanes() != nullptr ? *IfmaLanes() : PortableLanes();
  return active;
}

// The crossover: a chunk runs on IFMA from this many lanes. The IFMA kernel
// costs about the same for one lane as for eight, so one-lane IFMA time
// over portable time per product is the lane count where the two meet.
// bench_table3_primitives prints it per entry point; on a 4-vCPU Xeon with
// avx512ifma (gcc 12, smoke runs) it read 1.3-2.2 lanes for fixed-base,
// 1.6-2.1 for the MSM and 2.2-3.1 for variable-base. A chunk of fewer
// than 3 lanes stays portable.
const size_t kLaneMinIfma = 3;

// The Straus/Pippenger crossovers, in live MSM terms: where each
// backend's pippenger starts to beat StrausMsm in the
// bench_table3_primitives MSM rows. Portable: counted field mul/sqr per
// point, Straus costs 670-700 at every n from 64 up; Pippenger costs 861
// at n = 64, 704 at 128, 684 at 149 and 591 at 256, so counts alone put
// parity near 160, and timed it wins sooner. On a 4-vCPU Xeon with
// avx512ifma (GCC 12, best of 15 alternating rounds, two runs, a busy
// shared host), portable over Straus read 1.14-1.15 at n = 64, 0.94-1.07
// at 96 and 0.95-0.99 at 128; IFMA over Straus read 1.13-1.18 at n = 8,
// 0.90-0.96 at 12, 0.74-0.78 at 16 and 0.35-0.36 at 128.
const size_t kPippengerMinPortable = 128;
const size_t kPippengerMinIfma = 16;

namespace {

const LaneBackend& BackendFor(size_t lanes) {
  return lanes >= kLaneMinIfma ? ActiveLanes() : PortableLanes();
}

size_t Chunks(size_t lanes) { return (lanes + kLaneChunk - 1) / kLaneChunk; }

}  // namespace

void FixedBaseMul(const FixedBaseTable& table, std::span<const Scalar> scalars,
                  std::span<Point> out, size_t workers) {
  ATOM_CHECK(out.size() == scalars.size());
  ParallelFor(workers, Chunks(scalars.size()), [&](size_t c) {
    const size_t lo = c * kLaneChunk;
    const size_t lanes = std::min(kLaneChunk, scalars.size() - lo);
    BackendFor(lanes).fixed_base(table, scalars.subspan(lo, lanes),
                                 out.subspan(lo, lanes));
  });
}

void VariableBaseMul(std::span<const Point> bases,
                     std::span<const std::span<const Scalar>> columns,
                     std::span<const std::span<Point>> outs, size_t workers) {
  ATOM_CHECK(columns.size() == outs.size());
  ParallelFor(workers, Chunks(bases.size()), [&](size_t c) {
    const size_t lo = c * kLaneChunk;
    const size_t lanes = std::min(kLaneChunk, bases.size() - lo);
    std::vector<std::span<const Scalar>> cols(columns.size());
    std::vector<std::span<Point>> os(outs.size());
    for (size_t i = 0; i < columns.size(); i++) {
      cols[i] = columns[i].size() == 1 ? columns[i]
                                       : columns[i].subspan(lo, lanes);
      os[i] = outs[i].subspan(lo, lanes);
    }
    BackendFor(lanes).variable_base(bases.subspan(lo, lanes), cols, os);
  });
}

void SharedDigitMsm(std::span<const Point> bases,
                    std::span<const Scalar> scalars, std::span<Point> out,
                    size_t workers) {
  const size_t n = scalars.size();
  ATOM_CHECK(bases.size() == out.size() * n);
  ParallelFor(workers, Chunks(out.size()), [&](size_t c) {
    const size_t lo = c * kLaneChunk;
    const size_t lanes = std::min(kLaneChunk, out.size() - lo);
    BackendFor(lanes).msm(bases.subspan(lo * n, lanes * n), scalars,
                          out.subspan(lo, lanes));
  });
}

void SameBaseMul(const Point& base, const FixedBaseTable* table,
                 std::span<const Scalar> scalars, std::span<Point> out,
                 size_t workers) {
  if (table != nullptr) {
    ATOM_CHECK(table->base() == base);
    FixedBaseMul(*table, scalars, out, workers);
    return;
  }
  const std::vector<Point> bases(scalars.size(), base);
  const std::vector<std::span<const Scalar>> columns = {scalars};
  const std::vector<std::span<Point>> outs = {out};
  VariableBaseMul(bases, columns, outs, workers);
}

}  // namespace atom
