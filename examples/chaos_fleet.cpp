// chaos_fleet: drive the adversarial scenario harness from the command
// line (src/testing/scenario.h).
//
//   chaos_fleet [--scenario NAME|all] [--seed N] [--rounds N] [--users N]
//               [--workload raw|dialing|microblog] [--smoke]
//               [--report PATH]
//
// Each scenario spawns a real atom_server fleet (found next to this
// binary), the epoll reactor client gateway, and authenticated
// ClientSessions, injects its named fault deployment from the seed, and
// asserts the invariant matrix. Exits nonzero on the first violation,
// printing the replay command. --smoke shrinks to the fastest honest
// configuration (2 rounds) for the per-push CI job; --report writes one
// JSON object per scenario (a JSON array) for CI artifact upload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/testing/scenario.h"

int main(int argc, char** argv) {
  using namespace atom;
  std::string scenario = "all";
  std::string report_path;
  std::string metrics_path;
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
    if (flag == "--scenario") {
      scenario = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--rounds") {
      config.rounds = std::strtoul(value, nullptr, 10);
    } else if (flag == "--users") {
      config.users = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
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
    } else {
      std::fprintf(stderr,
                   "usage: chaos_fleet [--scenario NAME|all] [--seed N] "
                   "[--rounds N] [--users N] "
                   "[--workload raw|dialing|microblog] [--smoke] "
                   "[--report PATH] [--metrics-out PATH]\n");
      return 2;
    }
  }
  if (smoke) {
    config.rounds = 2;  // still >= the faulted round
    config.users = 4;
  }
  config.verbose = true;
  config.collect_fleet_metrics = !metrics_path.empty();

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
  reports_json += "]";
  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "could not write %s\n", report_path.c_str());
      return 2;
    }
    std::fputs(reports_json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("scenario report written to %s\n", report_path.c_str());
  }
  if (!metrics_path.empty()) {
    // One fleet-wide view: this process's registry (driver, gateway,
    // thread pools) merged with every server registry captured before
    // each scenario's teardown.
    const std::string exposition = FleetMetricsExposition();
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "could not write %s\n", metrics_path.c_str());
      return 2;
    }
    std::fwrite(exposition.data(), 1, exposition.size(), f);
    std::fclose(f);
    std::printf("fleet metrics exposition written to %s (%zu bytes)\n",
                metrics_path.c_str(), exposition.size());
  }
  return rc;
}
