// chaos_fleet: drive the adversarial scenario harness from the command
// line (src/testing/scenario.h).
//
//   chaos_fleet [--scenario NAME|all] [--seed N] [--rounds N] [--users N]
//               [--workload raw|dialing|microblog] [--smoke]
//               [--report PATH] [--metrics-out PATH] [--trace-out PATH]
//
// Each scenario spawns a real atom_server fleet (found next to this
// binary), the epoll reactor client gateway, and authenticated
// ClientSessions, injects its named fault deployment from the seed, and
// asserts the invariant matrix. Exits nonzero on the first violation,
// printing the replay command. --smoke shrinks to the fastest honest
// configuration (2 rounds) for the per-push CI job; --report writes one
// JSON object per scenario (a JSON array) for CI artifact upload;
// --metrics-out writes the fleet-merged Prometheus exposition;
// --trace-out arms span collection and timing histograms for the whole
// run and writes a validated Chrome trace-event JSON of the round phases.
// `--scenario clean --trace-out ...` is the deployed-shape smoke: every
// round byte-matches its twin with tracing armed.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/testing/scenario.h"

namespace {

// Whole-string decimal parse: junk, a sign or trailing characters fail,
// so a typo cannot silently become 0 (or a prefix of what was meant).
bool ParseUnsigned(const char* text, uint64_t max, uint64_t* out) {
  if (*text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) {
    return false;
  }
  *out = value;
  return true;
}

// False on any open, short-write or close failure.
bool WriteTextFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atom;
  std::string scenario = "all";
  std::string report_path;
  std::string metrics_path;
  std::string trace_path;
  ScenarioConfig config;
  config.seed = 1;
  config.rounds = 3;
  config.users = 6;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    const char* value = next();
    if (value == nullptr) {
      std::fprintf(stderr, "%s needs a value\n", flag.c_str());
      return 2;
    }
    uint64_t number = 0;
    if (flag == "--seed" || flag == "--rounds" || flag == "--users") {
      if (!ParseUnsigned(value, flag == "--users" ? UINT32_MAX : UINT64_MAX,
                         &number)) {
        std::fprintf(stderr, "%s must be a number, got '%s'\n",
                     flag.c_str(), value);
        return 2;
      }
    }
    if (flag == "--scenario") {
      scenario = value;
    } else if (flag == "--seed") {
      config.seed = number;
    } else if (flag == "--rounds") {
      config.rounds = number;
    } else if (flag == "--users") {
      config.users = static_cast<uint32_t>(number);
    } else if (flag == "--workload") {
      if (std::strcmp(value, "raw") == 0) {
        config.workload = WorkloadKind::kRaw;
      } else if (std::strcmp(value, "dialing") == 0) {
        config.workload = WorkloadKind::kDialing;
      } else if (std::strcmp(value, "microblog") == 0) {
        config.workload = WorkloadKind::kMicroblog;
      } else {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return 2;
      }
    } else if (flag == "--report") {
      report_path = value;
    } else if (flag == "--metrics-out") {
      metrics_path = value;
    } else if (flag == "--trace-out") {
      trace_path = value;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_fleet [--scenario NAME|all] [--seed N] "
                   "[--rounds N] [--users N] "
                   "[--workload raw|dialing|microblog] [--smoke] "
                   "[--report PATH] [--metrics-out PATH] "
                   "[--trace-out PATH]\n");
      return 2;
    }
  }
  if (smoke) {
    config.rounds = 2;  // still >= the faulted round
    config.users = 4;
  }
  config.verbose = true;
  config.collect_fleet_metrics = !metrics_path.empty();
  if (!trace_path.empty()) {
    // Armed before any work runs, so the trace carries phase spans and
    // the histograms carry samples.
    obs::Trace::Enable();
    obs::SetTimingEnabled(true);
  }

  // The atom_server fleet binary lives next to us in the build tree.
  std::string self = argv[0];
  size_t slash = self.rfind('/');
  config.server_binary =
      (slash == std::string::npos ? std::string(".")
                                  : self.substr(0, slash)) +
      "/atom_server";

  std::vector<std::string> names;
  if (scenario == "all") {
    names = ScenarioNames();
  } else {
    names.push_back(scenario);
  }

  int rc = 0;
  std::string reports_json = "[";
  for (size_t i = 0; i < names.size(); i++) {
    config.name = names[i];
    std::printf("=== scenario %s (seed=%llu, %zu rounds, workload %s)\n",
                config.name.c_str(),
                static_cast<unsigned long long>(config.seed), config.rounds,
                WorkloadName(config.workload));
    std::fflush(stdout);
    ScenarioReport report = RunScenario(config);
    if (i > 0) {
      reports_json += ",";
    }
    reports_json += report.ToJson();
    if (report.ok) {
      std::printf("=== scenario %s: OK\n", config.name.c_str());
    } else {
      std::fprintf(stderr,
                   "=== scenario %s: FAILED\n    %s\n    replay: "
                   "chaos_fleet --scenario %s --seed %llu --rounds %zu "
                   "--users %u --workload %s\n",
                   config.name.c_str(), report.failure.c_str(),
                   config.name.c_str(),
                   static_cast<unsigned long long>(config.seed),
                   config.rounds, config.users,
                   WorkloadName(config.workload));
      rc = 1;
    }
  }
  reports_json += "]\n";
  auto write = [&](const std::string& path, const std::string& body,
                   const char* what) {
    if (!WriteTextFile(path, body)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      rc = 1;
      return;
    }
    std::printf("%s written to %s (%zu bytes)\n", what, path.c_str(),
                body.size());
  };
  if (!report_path.empty()) {
    write(report_path, reports_json, "scenario report");
  }
  if (!metrics_path.empty()) {
    // One fleet-wide view: this process's registry (driver, gateway,
    // thread pools) merged with every server registry captured before
    // each scenario's teardown.
    write(metrics_path, FleetMetricsExposition(),
          "fleet metrics exposition");
  }
  if (!trace_path.empty()) {
    const std::string json = obs::Trace::ToJson();
    std::string error;
    if (!obs::ValidateTraceJson(json, &error)) {
      std::fprintf(stderr, "trace JSON failed validation: %s\n",
                   error.c_str());
      rc = 1;
    } else {
      write(trace_path, json, "Chrome trace-event JSON");
    }
  }
  return rc;
}
