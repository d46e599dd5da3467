// Summary statistics and the result line of the repository benchmark.
//
// Every run ends with one JSON object on the last line of stdout:
//
//   {"correct": true, "attempted": 832, "failed": 0,
//    "metrics": {"msgs_per_s": {"value": 71.9, "unit": "msg/s"}, ...}}
//
// ParseResultLine reads that line back with the exact shape checked; the
// --smoke self-test uses it on what the run just printed.
#ifndef BENCH_ATOM_BENCH_STATS_H_
#define BENCH_ATOM_BENCH_STATS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace atom_bench {

// Percentile q in [0, 1] of unsorted samples, interpolating linearly
// between the two closest ranks (numpy's default). 0 when empty.
double Percentile(std::vector<double> samples, double q);

// The three cut points Python's statistics.quantiles(values, n=4) returns
// (its default "exclusive" method): first quartile, median, third
// quartile. One value repeats itself; empty gives zeros.
std::array<double, 3> Quartiles(std::vector<double> values);

double Mean(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ResultLine {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// One line, no trailing newline. Values keep every digit a double holds.
std::string FormatResultLine(const ResultLine& result);

// Strict parse of FormatResultLine's output: exactly the four top-level
// keys, whole-number counts, and a {"value", "unit"} object per metric.
// nullopt (with a reason in *error) on any deviation.
std::optional<ResultLine> ParseResultLine(const std::string& line,
                                          std::string* error);

}  // namespace atom_bench

#endif  // BENCH_ATOM_BENCH_STATS_H_
