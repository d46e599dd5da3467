// The repository benchmark: Atom rounds over a forked atom_server fleet.
//
// A run executes one workload from one seed: it pre-generates every
// submission outside all timing, sets the deployment up several times
// (reporting the median set-up time), then drives a fixed number of
// measured rounds through the last deployment and checks every round's
// output. See README.md for the workloads, the metrics and why each
// exists.
#ifndef BENCH_ATOM_BENCH_BENCH_H_
#define BENCH_ATOM_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/atom_bench/stats.h"
#include "src/apps/workload.h"
#include "src/core/params.h"

namespace atom_bench {

using Clock = std::chrono::steady_clock;

// Every workload runs 4 groups (4 atom_server processes), and the load
// generator uses at most this many threads and client connections.
inline constexpr size_t kGroups = 4;
inline constexpr size_t kMaxLoadThreads = 4;
inline constexpr size_t kMaxClientConnections = 4;
// Closed loops keep this many rounds in flight on the fleet.
inline constexpr size_t kRoundsInFlight = 3;
// Intra-hop parallelism on each server (and of the probes' hops).
inline constexpr size_t kHopWorkers = 1;

struct WorkloadSpec {
  const char* name;
  atom::Variant variant;
  atom::WorkloadKind app;  // message generator and end-to-end validator
  size_t message_len;      // plaintext bytes
  size_t group_size;       // k
  size_t iterations;       // T
  size_t msgs_per_round;   // closed loop: per round; open loop: per window
  size_t warmup_rounds;
  // Rounds (windows) per second at today's speed. The measured phase of a
  // closed loop runs for --seconds and has inputs for twice this rate; the
  // open loop's schedule is exactly this rate.
  double rounds_per_second;
  int wan_delay_ms;  // emulated one-way latency on every link (0 = none)
  bool open_loop;    // ingress: clients -> gateway on a fixed schedule
};

const std::vector<WorkloadSpec>& Workloads();

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;    // per-layer metrics instead of end-to-end ones
  size_t setups = 3;     // set-up repetitions; the median is reported
  std::string server_binary;
  std::string out_dir;   // Chrome trace and fleet exposition (trace runs)
};

struct RunOutcome {
  ResultLine result;
  size_t load_threads = 0;            // peak concurrent load threads
  size_t client_connections = 0;      // client sessions opened
};

RunOutcome RunWorkload(const WorkloadSpec& w, const RunOptions& options);

// The most measured rounds a run of `seconds` can use (the inputs it
// pre-generates).
size_t MaxMeasuredRounds(const WorkloadSpec& w, double seconds);

}  // namespace atom_bench

#endif  // BENCH_ATOM_BENCH_BENCH_H_
