// Adversarial scenario harness: named fault deployments over the REAL
// stack — registered clients on authenticated ClientSessions, a
// ReactorGateway fronting streaming intake, a DistributedRoundDriver,
// and a fleet of atom_server OS processes — with every fault drawn from
// one seeded FaultPlan (src/net/faults.h) so a failing run replays
// exactly from its printed seed.
//
// Each scenario drives several pipelined rounds and asserts the
// invariant matrix:
//
//   * liveness  — every round either completes or aborts with a
//                 round-scoped reason; nothing hangs past the deadline;
//   * blame     — an abort's attribution names only faulted parties
//                 (severed server pairs for partitions, no framed users
//                 for a byzantine mixer: BlameEntryGroup over the aborted
//                 epoch must come back empty);
//   * fidelity  — rounds the faults did not touch stay byte-identical to
//                 a fault-free twin Round fed the identical accepted
//                 submissions in process;
//   * workload  — the application layer (src/apps/workload.h: raw,
//                 dialing, microblogging) validates end to end on
//                 whatever subset of submissions the gateway accepted.
//
// The catalog (ScenarioNames()):
//
//   clean        no faults: every round completes and byte-matches its
//                twin (the deployed-shape smoke).
//   churn        gateway force-drops clients mid-stream; dropped clients
//                reconnect next round; the accepted set stays exactly
//                knowable, so every round still byte-matches its twin.
//   flash_crowd  ~10x oversubscription (burst submissions from every
//                client against a tiny credit window and shard ring);
//                backpressure verdicts must bound the queue, retries must
//                land every message, and the round must conserve them.
//   partition    a regional link cut (both directions, one round) aborts
//                exactly that round, naming a cross-region server pair;
//                then a SIGKILLed server aborts its round and a
//                repaired roster completes a fresh one.
//   straggler    one server stalls before every frame; rounds slow down
//                but complete byte-identical to the twin.
//   byzantine    one mixer re-points a round's hop batch (valid curve
//                points — protocol-level cheating); the §4.4 trap check
//                aborts that round and no user is blamed for it.
#ifndef SRC_TESTING_SCENARIO_H_
#define SRC_TESTING_SCENARIO_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/workload.h"

namespace atom {

struct ScenarioConfig {
  std::string name;  // one of ScenarioNames()
  uint64_t seed = 1;
  // Rounds driven through the pipeline (partition adds two more for its
  // kill/repair phase). Scenarios that fault "round 2" need >= 2; zero
  // rounds or zero users fail the run before anything is spawned.
  size_t rounds = 3;
  uint32_t users = 6;
  WorkloadKind workload = WorkloadKind::kRaw;
  std::string server_binary;  // path to the atom_server executable
  std::chrono::milliseconds round_timeout{std::chrono::seconds(60)};
  bool verbose = false;  // per-round progress on stdout
  // When set, each scenario pulls every reachable server's metrics
  // registry over the control plane (kMetricsSnapshot) before teardown
  // and folds it into the process-wide fleet accumulator readable via
  // FleetMetricsExposition(). Off by default: faulted scenarios pay a
  // control-timeout per dead host.
  bool collect_fleet_metrics = false;
};

struct RoundOutcome {
  uint64_t round_id = 0;
  bool completed = false;
  bool fault_expected = false;  // the scenario injected a fault here
  std::string abort_reason;
  size_t accepted = 0;    // submissions the gateway accepted
  size_t plaintexts = 0;  // anonymized outputs (0 when aborted)
};

struct ScenarioReport {
  std::string scenario;
  uint64_t seed = 0;
  WorkloadKind workload = WorkloadKind::kRaw;
  bool ok = false;
  // First invariant violation (empty when ok). Always mentions enough to
  // replay: chaos_fleet --scenario <name> --seed <seed>.
  std::string failure;
  std::vector<RoundOutcome> rounds;
  size_t backpressure_events = 0;  // flash_crowd: kBackpressure verdicts
  size_t client_disconnects = 0;   // churn: gateway force-drops

  // Driver-mesh transport counters (TcpPeerMesh::Stats snapshot taken
  // before teardown): how much wire traffic the scenario generated and
  // how well entry coalescing packed it.
  uint64_t transport_bytes_sent = 0;
  uint64_t transport_frames_sent = 0;
  uint64_t transport_bundles_sent = 0;
  double transport_bundle_fill = 0.0;  // envelopes per bundle frame
  size_t transport_queue_depth_peak = 0;
  size_t transport_send_queue_drops = 0;

  std::string ToJson() const;
};

// The scenario catalog, in documentation order.
const std::vector<std::string>& ScenarioNames();

// Fleet-wide metrics accumulated across every scenario this process ran
// with collect_fleet_metrics set: the local registry (driver + gateway +
// pools) merged with each server's kMetricsSnapshot reply, rendered in
// Prometheus text exposition format. chaos_fleet --metrics-out dumps it.
std::string FleetMetricsExposition();

// Runs one scenario to completion. Never throws and never hangs past
// (rounds + 2) * round_timeout: every invariant violation — including a
// round that would have hung — lands in the returned report.
ScenarioReport RunScenario(const ScenarioConfig& config);

}  // namespace atom

#endif  // SRC_TESTING_SCENARIO_H_
