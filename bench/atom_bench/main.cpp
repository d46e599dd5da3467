// atom_bench: the repository benchmark (see README.md).
//
//   atom_bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//   atom_bench --smoke
//
// Prints each workload's metrics by name and unit, then one result line
// per workload; the last line of stdout is the result of the last
// workload run. Exits 0 only when every output check held.
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "bench/atom_bench/bench.h"
#include "bench/atom_bench/fleet.h"

namespace atom_bench {
namespace {

// Backstop for the run's time budget (every round and verdict already
// carries its own deadline): past it, the fleet is killed and the run
// exits without a result line.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds budget)
      : thread_([this, budget] { Run(budget); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Run(std::chrono::seconds budget) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, budget, [&] { return done_; })) {
      return;
    }
    std::fprintf(stderr, "atom_bench: run exceeded %lld s; stopping\n",
                 static_cast<long long>(budget.count()));
    KillAllServers();
    std::_Exit(3);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

constexpr std::chrono::seconds kRunBudget{170};

int Usage() {
  std::fprintf(stderr,
               "usage: atom_bench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "       atom_bench --smoke\n"
               "workloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool Near(double got, double want) { return std::abs(got - want) < 1e-9; }

// The helpers every metric and spread rests on, against known vectors
// (the Quartiles vectors are what Python's statistics.quantiles returns),
// and the result-line codec against hand-written lines.
bool SelfTest() {
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ok = false;
    }
  };
  expect(Near(Percentile({4, 1, 3, 2}, 0.5), 2.5), "percentile median");
  expect(Near(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1),
         "percentile p90");
  expect(Near(Percentile({7}, 0.99), 7), "percentile of one sample");
  expect(Near(Percentile({}, 0.5), 0), "percentile of none");
  auto q = Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25),
         "quartiles of 1..10");
  q = Quartiles({1, 3});
  expect(Near(q[0], 0.5) && Near(q[1], 2.0) && Near(q[2], 3.5),
         "quartiles of two values");
  q = Quartiles({3.0, 1.0, 2.0});
  expect(Near(q[0], 1.0) && Near(q[1], 2.0) && Near(q[2], 3.0),
         "quartiles of three values");

  ResultLine line;
  line.correct = true;
  line.attempted = 832;
  line.failed = 0;
  line.metrics = {{"msgs_per_s", 71.93125, "msg/s"}, {"setup_s", 0.8, "s"}};
  std::string error;
  auto parsed = ParseResultLine(FormatResultLine(line), &error);
  expect(parsed.has_value() && parsed->correct && parsed->attempted == 832 &&
             parsed->metrics.size() == 2 &&
             parsed->metrics[0].name == "msgs_per_s" &&
             Near(parsed->metrics[0].value, 71.93125) &&
             parsed->metrics[1].unit == "s",
         "result line round trip");
  for (const char* bad :
       {"{\"correct\": true, \"attempted\": 1, \"failed\": 0}",
        "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, "
        "\"metrics\": {}}",
        "{\"correct\": true, \"attempted\": 0, \"failed\": 0, "
        "\"metrics\": {}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{\"x\": {\"value\": 1}}}",
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
        "{}, \"extra\": 1}"}) {
    expect(!ParseResultLine(bad, &error).has_value(),
           "a malformed result line parsed");
  }
  return ok;
}

// Prints the result line and re-parses what was printed.
bool EmitResult(const RunOutcome& outcome) {
  const std::string line = FormatResultLine(outcome.result);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  std::string error;
  if (!ParseResultLine(line, &error).has_value()) {
    std::fprintf(stderr, "result line does not re-parse: %s\n",
                 error.c_str());
    return false;
  }
  return true;
}

// Every workload at about a tenth of a full run's rounds with all checks
// on, plus the self-test and the load-generator limits.
int RunSmoke(RunOptions options) {
  options.seconds /= 10;
  options.setups = 1;
  bool ok = SelfTest();
  std::printf("self-test: %s\n", ok ? "ok" : "FAILED");
  Watchdog watchdog(kRunBudget);
  for (const WorkloadSpec& w : Workloads()) {
    RunOutcome outcome = RunWorkload(w, options);
    ok &= EmitResult(outcome) && outcome.result.correct;
    if (outcome.load_threads > kMaxLoadThreads ||
        outcome.client_connections > kMaxClientConnections) {
      std::fprintf(stderr, "%s used %zu load threads and %zu connections\n",
                   w.name, outcome.load_threads, outcome.client_connections);
      ok = false;
    }
  }
  std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

bool ParseNumber(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(*out);
}

}  // namespace
}  // namespace atom_bench

int main(int argc, char** argv) {
  using namespace atom_bench;
  RunOptions options;
  options.server_binary = ATOM_SERVER_BINARY;
  std::error_code ec;
  options.out_dir =
      (std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() /
       "out")
          .string();
  std::string workload = "all";
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && ParseNumber(value, &number) &&
               number >= 0 && number == std::floor(number)) {
      options.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds" && ParseNumber(value, &number) &&
               number > 0 && number <= 60) {
      options.seconds = number;
    } else if (flag == "--trace" && (std::string(value) == "0" ||
                                     std::string(value) == "1")) {
      options.trace = std::string(value) == "1";
    } else {
      return Usage();
    }
  }
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf("# atom_bench: nproc=%ld compiler=%s %s build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), compiler, __VERSION__,
              ATOM_BENCH_BUILD_TYPE);
  if (smoke) {
    return RunSmoke(options);
  }
  std::vector<const WorkloadSpec*> selected;
  for (const WorkloadSpec& w : Workloads()) {
    if (workload == "all" || workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    return Usage();
  }
  Watchdog watchdog(kRunBudget * static_cast<int>(selected.size()));
  bool ok = true;
  for (const WorkloadSpec* w : selected) {
    RunOutcome outcome = RunWorkload(*w, options);
    ok &= EmitResult(outcome) && outcome.result.correct;
  }
  return ok ? 0 : 1;
}
