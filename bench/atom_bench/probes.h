// Per-layer probes for the traced run: the crypto primitives, one group
// hop, and the exit stages, each timed on its own at the workload's sizes
// through the library's public functions. They run after the traced fleet
// is gone, so nothing else competes for the cores.
#ifndef BENCH_ATOM_BENCH_PROBES_H_
#define BENCH_ATOM_BENCH_PROBES_H_

#include <array>
#include <string>
#include <vector>

#include "bench/atom_bench/bench.h"
#include "src/core/round.h"

namespace atom_bench {

struct ProbeInputs {
  atom::Round* keys = nullptr;  // group runtimes, keys and layout
  // One round's entry batch per group, and (trap variant) the trap
  // commitments registered with each entry group for it.
  std::vector<atom::CiphertextBatch> entry;
  std::vector<std::vector<std::array<uint8_t, 32>>> commitments;
  size_t span = 1;  // submissions one entry group admits per round
  uint64_t seed = 0;
};

// crypto.*, core.hop.* and core.exit.* metrics. A probe whose output does
// not verify appends to *failures.
std::vector<Metric> ProbeLayers(const WorkloadSpec& w, const ProbeInputs& in,
                                std::vector<std::string>* failures);

}  // namespace atom_bench

#endif  // BENCH_ATOM_BENCH_PROBES_H_
