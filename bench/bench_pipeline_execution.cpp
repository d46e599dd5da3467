// Executed pipelining (§4.7): the RoundEngine running the real permutation
// network, measured — not the analytical EstimatePipelined model.
//
// Sequential mode drains each round before admitting the next (the old
// layer-barrier driver's schedule). Pipelined mode submits R rounds at
// once: hop (r, ℓ, g) runs as soon as its inputs arrive, so while round r
// occupies layer ℓ, round r+1 occupies layer ℓ-1 — a new batch enters the
// network every layer-time. On an N-core host the pipeline keeps every
// core busy and approaches min(N, in-flight work) speedup; with 3+ rounds
// in flight a multi-core host should see >= 2x executed throughput.
//
// The end-to-end section then runs the full protocol path — sharded
// intake (pool-verified batch submission), mixing, AND the engine-native
// exit phase (trap sort/check/trustee/decrypt as hop tasks) — pipelined
// over several engine rounds of one key epoch. Because exit work overlaps
// the next round's mixing instead of serializing on the caller, the
// end-to-end throughput must stay within 1.25x of mixing-only throughput;
// this binary exits non-zero when the exit phase degenerates back into a
// serial tail. `--smoke` shrinks every knob so CI can run the whole
// intake→mix→exit path in seconds on every push.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/core/round.h"
#include "src/crypto/elgamal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

namespace {

using atom::CiphertextBatch;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct MixNetwork {
  std::unique_ptr<atom::SquareTopology> topology;
  std::vector<std::unique_ptr<atom::GroupRuntime>> groups;
  std::vector<const atom::GroupRuntime*> ptrs;

  MixNetwork(size_t width, size_t iterations, size_t k, atom::Rng& rng) {
    topology = std::make_unique<atom::SquareTopology>(width, iterations);
    for (uint32_t g = 0; g < width; g++) {
      groups.push_back(std::make_unique<atom::GroupRuntime>(
          g, atom::RunDkg(atom::DkgParams{k, k}, rng)));
      ptrs.push_back(groups.back().get());
    }
  }

  std::vector<CiphertextBatch> MakeEntry(size_t per_group, atom::Rng& rng) {
    std::vector<CiphertextBatch> entry(topology->Width());
    for (uint32_t g = 0; g < topology->Width(); g++) {
      for (size_t i = 0; i < per_group; i++) {
        atom::Bytes payload = {static_cast<uint8_t>(g),
                               static_cast<uint8_t>(i)};
        entry[g].push_back({atom::ElGamalEncrypt(
            groups[g]->pk(),
            *atom::EmbedMessage(atom::BytesView(payload)), rng)});
      }
    }
    return entry;
  }

  atom::EngineRound Spec(std::vector<CiphertextBatch> entry,
                         atom::Rng& rng) const {
    atom::EngineRound spec;
    spec.topology = topology.get();
    spec.groups = ptrs;
    spec.variant = atom::Variant::kTrap;
    spec.hop_workers = 1;  // pipeline parallelism only, for a clean A/B
    spec.entry = std::move(entry);
    rng.Fill(spec.seed.data(), spec.seed.size());
    return spec;
  }
};

// End-to-end pipelined execution over one key epoch: returns 0 on success.
int RunEndToEnd(bool smoke, atom::Rng& rng) {
  using namespace atom;
  const size_t kGroups = 4;
  const size_t kIterations = smoke ? 3 : 4;
  const size_t kUsersPerGroup = smoke ? 3 : 8;
  const size_t kRounds = smoke ? 2 : 4;

  RoundConfig config;
  config.params.variant = Variant::kTrap;
  config.params.num_servers = 8;
  config.params.num_groups = kGroups;
  config.params.group_size = 2;
  config.params.honest_needed = 1;
  config.params.iterations = kIterations;
  config.params.message_len = 32;
  config.beacon = ToBytes("bench-pipeline-e2e");
  Round round(config, rng);

  std::printf("\nend to end: intake -> mix -> exit inside the engine "
              "(%zux%zu square, %zu users/group, %zu rounds in flight)\n",
              kGroups, kIterations, kUsersPerGroup, kRounds);

  // Pre-make every round's submissions so intake timing measures
  // verification + sharded acceptance, not client-side encryption.
  std::vector<std::vector<TrapSubmission>> subs(kRounds);
  for (size_t r = 0; r < kRounds; r++) {
    for (uint32_t g = 0; g < kGroups; g++) {
      for (size_t u = 0; u < kUsersPerGroup; u++) {
        Bytes msg = {static_cast<uint8_t>(r), static_cast<uint8_t>(g),
                     static_cast<uint8_t>(u)};
        auto sub = MakeTrapSubmission(round.EntryPk(g), g, round.TrusteePk(),
                                      BytesView(msg), round.layout(), rng);
        sub.client_id = (r << 16) | (g << 8) | (u + 1);
        subs[r].push_back(std::move(sub));
      }
    }
  }
  const size_t per_round = kGroups * kUsersPerGroup;
  const size_t workers = HardwareThreads();

  RoundEngine engine(&ThreadPool::Shared());

  // Two repetitions, best time of each section: the workload is small
  // (CI smoke-runs this on shared runners), so a single scheduling stall
  // in one rep must not be able to fail the tail-ratio gate below.
  double intake_seconds = 0;
  double mix_seconds = 0, e2e_seconds = 0;
  std::vector<uint64_t> tickets;
  for (int rep = 0; rep < 2; rep++) {
    // Intake + take: each round's submissions verify on the shared pool,
    // then drain into a self-contained spec (its own trap commitments).
    // Resubmitting the same client ids is fine — every take starts a
    // fresh intake epoch.
    std::vector<EngineRound> e2e_specs, mix_specs;
    auto t_intake = Clock::now();
    for (size_t r = 0; r < kRounds; r++) {
      auto accepted = round.SubmitTrapBatch(subs[r], workers);
      for (bool ok : accepted) {
        if (!ok) {
          std::fprintf(stderr, "intake rejected an honest submission\n");
          return 1;
        }
      }
      e2e_specs.push_back(round.TakeEngineRound({}, rng));
    }
    double intake_rep = SecondsSince(t_intake);
    intake_seconds =
        rep == 0 ? intake_rep : std::min(intake_seconds, intake_rep);
    // Mixing-only twins of the same rounds for the A/B: identical entry
    // batches and seed, no exit plan.
    for (const EngineRound& spec : e2e_specs) {
      mix_specs.push_back(spec);
      mix_specs.back().exit.reset();
    }

    // A: mixing only, pipelined (what the old bench measured).
    auto t_mix = Clock::now();
    tickets.clear();
    for (auto& spec : mix_specs) {
      tickets.push_back(engine.Submit(std::move(spec)));
    }
    for (uint64_t ticket : tickets) {
      if (engine.Wait(ticket).aborted) {
        std::fprintf(stderr, "mixing-only round aborted\n");
        return 1;
      }
    }
    double mix_rep = SecondsSince(t_mix);
    mix_seconds = rep == 0 ? mix_rep : std::min(mix_seconds, mix_rep);

    // B: full rounds, pipelined — the exit phase rides the same DAG, so
    // round r's trap sorting overlaps round r+1's mixing.
    auto t_e2e = Clock::now();
    tickets.clear();
    for (auto& spec : e2e_specs) {
      tickets.push_back(engine.Submit(std::move(spec)));
    }
    for (size_t r = 0; r < tickets.size(); r++) {
      auto result = engine.Wait(tickets[r]).round;
      if (result.aborted) {
        std::fprintf(stderr, "end-to-end round %zu aborted: %s\n", r,
                     result.abort_reason.c_str());
        return 1;
      }
      if (result.plaintexts.size() != per_round ||
          result.traps_seen != per_round) {
        std::fprintf(stderr, "end-to-end round %zu lost messages\n", r);
        return 1;
      }
    }
    double e2e_rep = SecondsSince(t_e2e);
    e2e_seconds = rep == 0 ? e2e_rep : std::min(e2e_seconds, e2e_rep);
  }

  double msgs = static_cast<double>(per_round * kRounds);
  double tail_ratio = e2e_seconds / mix_seconds;
  // Full mode enforces the real 1.25x exit-tail budget; smoke mode runs
  // sub-second sections on shared CI runners, so it keeps the lost-
  // message/abort checks hard but gives the timing gate noise headroom.
  const double budget = smoke ? 2.0 : 1.25;
  std::printf("  intake (verify on %zu workers): %7.0f submissions/s\n",
              workers, msgs / intake_seconds);
  std::printf("  pipelined mixing only:          %7.0f msg/s\n",
              msgs / mix_seconds);
  std::printf("  pipelined intake->mix->exit:    %7.0f msg/s "
              "(%.2fx mixing-only time)\n",
              msgs / e2e_seconds, tail_ratio);
  if (tail_ratio > budget) {
    std::fprintf(stderr, "exit phase is a serial tail again: end-to-end "
                         "took %.2fx mixing-only (budget %.2fx)\n",
                 tail_ratio, budget);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atom;
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintHeader("Pipelined round execution (engine, measured)",
              "§4.7: a pipelined deployment admits a new batch every "
              "layer-time instead of every round-time");

  const size_t kWidth = 4;       // groups per layer
  const size_t kIterations = 4;  // mixing layers T
  const size_t kGroupSize = 2;   // servers per group
  const size_t kPerGroup = smoke ? 4 : 16;  // messages per entry group
  Rng rng(0x9173e11e);

  std::printf("\nnetwork: %zux%zu square, k=%zu, %zu msgs/group, "
              "%zu hardware threads%s\n",
              kWidth, kIterations, kGroupSize, kPerGroup, HardwareThreads(),
              smoke ? " (smoke mode)" : "");
  MixNetwork net(kWidth, kIterations, kGroupSize, rng);
  const size_t per_round = kWidth * kPerGroup;

  // Warm-up: one round end to end (also populates any lazy init).
  {
    RoundEngine engine(&ThreadPool::Shared());
    auto r = engine.RunToCompletion(net.Spec(net.MakeEntry(kPerGroup, rng),
                                             rng));
    if (r.aborted) {
      std::fprintf(stderr, "warm-up aborted: %s\n", r.abort_reason.c_str());
      return 1;
    }
  }

  BenchJson json("pipeline_execution");
  json.Bool("smoke", smoke);
  json.Num("width", static_cast<double>(kWidth));
  json.Num("iterations", static_cast<double>(kIterations));
  json.Num("msgs_per_group", static_cast<double>(kPerGroup));
  json.Num("hardware_threads", static_cast<double>(HardwareThreads()));

  std::printf("\n  in-flight | sequential msg/s | pipelined msg/s | gain\n");
  std::printf("  ----------+------------------+-----------------+-----\n");
  double exec_gain_at_3 = 0;
  std::vector<size_t> in_flight_counts =
      smoke ? std::vector<size_t>{1, 3} : std::vector<size_t>{1, 2, 3, 4, 6};
  for (size_t in_flight : in_flight_counts) {
    // Pre-encrypt every round's batch so only mixing is timed.
    std::vector<std::vector<CiphertextBatch>> entries_seq, entries_pipe;
    for (size_t r = 0; r < in_flight; r++) {
      entries_seq.push_back(net.MakeEntry(kPerGroup, rng));
      entries_pipe.push_back(net.MakeEntry(kPerGroup, rng));
    }

    RoundEngine engine(&ThreadPool::Shared());
    auto t0 = Clock::now();
    for (auto& entry : entries_seq) {
      auto r = engine.RunToCompletion(net.Spec(std::move(entry), rng));
      if (r.aborted) {
        std::fprintf(stderr, "sequential round aborted\n");
        return 1;
      }
    }
    double seq_seconds = SecondsSince(t0);

    auto t1 = Clock::now();
    std::vector<uint64_t> tickets;
    for (auto& entry : entries_pipe) {
      tickets.push_back(engine.Submit(net.Spec(std::move(entry), rng)));
    }
    for (uint64_t ticket : tickets) {
      if (engine.Wait(ticket).aborted) {
        std::fprintf(stderr, "pipelined round aborted\n");
        return 1;
      }
    }
    double pipe_seconds = SecondsSince(t1);

    double msgs = static_cast<double>(per_round * in_flight);
    double gain = seq_seconds / pipe_seconds;
    if (in_flight == 3) {
      exec_gain_at_3 = gain;
    }
    std::printf("  %9zu | %16.0f | %15.0f | %3.2fx\n", in_flight,
                msgs / seq_seconds, msgs / pipe_seconds, gain);
    size_t row = json.Row();
    json.RowNum(row, "in_flight", static_cast<double>(in_flight));
    json.RowNum(row, "sequential_msgs_per_second", msgs / seq_seconds);
    json.RowNum(row, "pipelined_msgs_per_second", msgs / pipe_seconds);
    json.RowNum(row, "gain", gain);
  }

  // ---- Observability overhead: the plane must be ~free when dark and
  // cheap when lit. Same 3-in-flight pipelined workload, A/B'd with the
  // timing gate + span collector off (the production default) and on.
  {
    const size_t kInFlight = 3;
    auto run_pipelined = [&]() {
      std::vector<std::vector<CiphertextBatch>> entries;
      for (size_t r = 0; r < kInFlight; r++) {
        entries.push_back(net.MakeEntry(kPerGroup, rng));
      }
      RoundEngine engine(&ThreadPool::Shared());
      auto t = Clock::now();
      std::vector<uint64_t> tickets;
      for (auto& entry : entries) {
        tickets.push_back(engine.Submit(net.Spec(std::move(entry), rng)));
      }
      for (uint64_t ticket : tickets) {
        if (engine.Wait(ticket).aborted) {
          return -1.0;
        }
      }
      return SecondsSince(t);
    };
    double off_seconds = 0, on_seconds = 0;
    for (int rep = 0; rep < 2; rep++) {
      obs::SetTimingEnabled(false);
      double off = run_pipelined();
      obs::Trace::Enable();
      obs::SetTimingEnabled(true);
      double on = run_pipelined();
      obs::SetTimingEnabled(false);
      obs::Trace::Disable();
      obs::Trace::Clear();
      if (off < 0 || on < 0) {
        std::fprintf(stderr, "observability A/B round aborted\n");
        return 1;
      }
      off_seconds = rep == 0 ? off : std::min(off_seconds, off);
      on_seconds = rep == 0 ? on : std::min(on_seconds, on);
    }
    // The dark path is one relaxed load + branch per instrumentation
    // point; measure it directly and express it as a fraction of the hop
    // rate the pipelined engine actually sustains.
    constexpr size_t kSpanIters = 1 << 21;
    auto t_span = Clock::now();
    for (size_t i = 0; i < kSpanIters; i++) {
      obs::TraceSpan span("probe", "bench", 0);
    }
    const double span_ns = SecondsSince(t_span) / kSpanIters * 1e9;
    const double hops_per_round =
        static_cast<double>(kWidth) * kIterations + 3;  // + exit phases
    const double hops_per_second =
        hops_per_round * kInFlight / off_seconds;
    const double dark_fraction = span_ns * 1e-9 * hops_per_second;
    const double msgs = static_cast<double>(per_round * kInFlight);
    const double lit_overhead = on_seconds / off_seconds - 1.0;
    std::printf("\nobservability overhead (3 in-flight pipelined rounds):\n");
    std::printf("  metrics+tracing off:  %7.0f msg/s\n", msgs / off_seconds);
    std::printf("  metrics+tracing on:   %7.0f msg/s  (%+.1f%%)\n",
                msgs / on_seconds, lit_overhead * 100.0);
    std::printf("  disabled span probe:  %.1f ns/branch -> %.4f%% of the "
                "hop budget\n", span_ns, dark_fraction * 100.0);
    json.Num("obs_off_msgs_per_second", msgs / off_seconds);
    json.Num("obs_on_msgs_per_second", msgs / on_seconds);
    json.Num("obs_enabled_overhead", lit_overhead);
    json.Num("obs_disabled_span_ns", span_ns);
    json.Num("obs_disabled_overhead_fraction", dark_fraction);
    // Gates: the dark path must cost < 1% of hop throughput; the lit
    // path < 5%. Smoke mode keeps the dark gate (it is timing-noise
    // immune) but widens the lit one — sub-second sections on shared CI
    // runners see scheduler noise bigger than the budget.
    if (dark_fraction > 0.01) {
      std::fprintf(stderr, "disabled observability path costs %.2f%% of "
                           "hop throughput (budget 1%%)\n",
                   dark_fraction * 100.0);
      return 1;
    }
    const double lit_budget = smoke ? 0.50 : 0.05;
    if (lit_overhead > lit_budget) {
      std::fprintf(stderr, "enabled observability overhead %.1f%% exceeds "
                           "the %.0f%% budget\n",
                   lit_overhead * 100.0, lit_budget * 100.0);
      return 1;
    }
  }

  // ---- End to end: the exit phase rides the engine's DAG.
  int e2e_status = RunEndToEnd(smoke, rng);
  if (e2e_status != 0) {
    return e2e_status;
  }
  if (smoke) {
    std::printf("\nsmoke mode: analytical cross-check skipped\n");
    return 0;
  }

  // ---- Shape cross-check against the analytical model (src/sim/netsim.h).
  const CostModel& costs = CalibratedCosts();
  NetworkModel model = NetworkModel::TorLike(256, rng);
  auto config = PaperDeployment(256, 100'000, Variant::kTrap, 160);
  auto est_seq = EstimateRound(config, model, costs);
  auto est_pipe = EstimatePipelined(config, model, costs);
  double est_gain = est_pipe.throughput_msgs_per_second /
                    (static_cast<double>(config.total_messages) /
                     est_seq.total_seconds);
  std::printf("\nanalytical cross-check (256 servers, 100k msgs): estimated "
              "pipelining gain %.1fx\n", est_gain);
  std::printf("executed gain at 3 in-flight rounds on this host: %.2fx "
              "(%zu hardware threads;\nthe executed gain tracks "
              "min(cores, in-flight) while the estimate assumes a full "
              "WAN\ndeployment — both must exceed 1x and saturate, which "
              "is the shape EstimatePipelined\npredicts)\n",
              exec_gain_at_3, HardwareThreads());
  if (exec_gain_at_3 <= 0.8) {
    std::fprintf(stderr, "pipelined execution slower than sequential — "
                         "engine regression\n");
    return 1;
  }
  return 0;
}
