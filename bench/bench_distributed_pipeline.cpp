// Figure 10/11-style throughput for the DISTRIBUTED deployment (§4.7):
// how much does overlapping rounds across server processes buy over
// running one round at a time on the same mesh, and what does the wire
// cost against the in-process engine?
//
// Executors driving identical seeded EngineRound specs:
//
//   engine             RoundEngine, in process.
//   mesh-sequential    DistributedRoundDriver over loopback TCP servers,
//                      Submit -> Wait one round at a time (a global
//                      barrier on the wire).
//   mesh-pipelined     Every round submitted before any is waited on.
//                      Each hop's envelopes to one peer travel as one
//                      kEnvelopeBundle frame through the async sender
//                      lanes, so AEAD-seal of bundle n+1 overlaps the
//                      emulated wire stall of bundle n.
//   *-wan-matrix       Pipelined under a two-region WAN matrix (cheap
//                      intra-region links, slow bandwidth-capped
//                      cross-region links via set_peer_profile) — the
//                      Figure 10/11 deployment shape.
//
// The servers are real NodeProcess instances behind encrypted loopback
// links (full wire serialization, control plane, per-round lanes); they
// share this process so the bench needs no child-process management.
// Each server gets its own small ThreadPool (mirroring the real
// one-pool-per-process deployment) and the mesh's netem-style per-peer
// WAN profiles emulate hop latency: that is exactly the idle bubble both
// pipelining and the sender lanes exist to fill.
//
// Emits BENCH_distributed_pipeline.json next to the text table. Exits
// nonzero if pipelined throughput is not strictly above sequential.
//
//   ./build/bench/bench_distributed_pipeline [--smoke]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/round.h"
#include "src/net/node_process.h"
#include "src/net/round_driver.h"
#include "src/util/parallel.h"

namespace {

using namespace atom;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Fixture {
  std::unique_ptr<Round> round;
  uint64_t next_client = 1;
  size_t users_per_round = 0;
  size_t layers = 0;  // == config.params.iterations
  Rng rng{uint64_t{0xd15f10}};

  explicit Fixture(bool smoke) {
    RoundConfig config;
    config.params.variant = Variant::kTrap;
    config.params.num_servers = 6;
    // Four groups on two hosting servers (see RunFleet): multi-envelope
    // fan-outs per peer are what give bundles something to coalesce.
    config.params.num_groups = 4;
    config.params.group_size = 3;
    config.params.honest_needed = 1;
    config.params.iterations = smoke ? 2 : 4;
    config.params.message_len = 64;
    config.beacon = ToBytes("bench-distributed-pipeline");
    config.workers = 1;  // leave cores for cross-round overlap
    users_per_round = smoke ? 4 : 12;
    layers = config.params.iterations;
    round = std::make_unique<Round>(config, rng);
  }

  // Submits one round's users and drains them into a spec.
  EngineRound TakeSpec() {
    for (size_t u = 0; u < users_per_round; u++) {
      uint32_t gid = static_cast<uint32_t>(u % round->NumGroups());
      std::string msg = "msg " + std::to_string(next_client);
      auto sub = MakeTrapSubmission(round->EntryPk(gid), gid,
                                    round->TrusteePk(),
                                    BytesView(ToBytes(msg)),
                                    round->layout(), rng);
      sub.client_id = next_client++;
      if (!round->SubmitTrap(sub)) {
        std::fprintf(stderr, "submission rejected\n");
        std::exit(1);
      }
    }
    return round->TakeEngineRound({}, rng);
  }

  std::vector<EngineRound> TakeSpecs(size_t n) {
    std::vector<EngineRound> specs;
    for (size_t i = 0; i < n; i++) {
      specs.push_back(TakeSpec());
    }
    return specs;
  }
};

// One fleet configuration: driving mode plus WAN emulation shape.
struct FleetOpts {
  bool sequential = false; // Wait each round before submitting the next
  std::chrono::milliseconds wan_delay{0};  // uniform per-frame stall
  bool wan_matrix = false;  // two-region matrix (overrides wan_delay)
  std::chrono::milliseconds intra_delay{0};
  std::chrono::milliseconds cross_delay{0};
  size_t cross_bytes_per_ms = 0;  // cross-region bandwidth cap
};

// Transport totals summed over every server mesh plus the driver mesh.
struct WireTotals {
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t bundles = 0;
  uint64_t enveloped = 0;
  size_t queue_peak = 0;
  size_t drops = 0;

  void Add(const MeshTransportStats& stats) {
    bytes += stats.TotalBytes();
    frames += stats.TotalFrames();
    bundles += stats.TotalBundles();
    enveloped += stats.TotalEnvelopesBundled();
    queue_peak = std::max(queue_peak, stats.QueueDepthPeak());
    drops += stats.send_queue_drops;
  }

  double BundleFill() const {
    return bundles == 0 ? 0.0
                        : static_cast<double>(enveloped) /
                              static_cast<double>(bundles);
  }
};

struct FleetResult {
  double seconds = 0;
  WireTotals wire;
};

// Builds a fresh loopback fleet with `opts`, drives `specs` through it,
// tears it down, and returns wall-clock plus transport counters. A fresh
// fleet per configuration because the WAN profiles must be set before the
// server processes start.
FleetResult RunFleet(Fixture& fx, std::vector<EngineRound> specs,
                     const FleetOpts& opts) {
  const size_t width = fx.round->NumGroups();
  // Two groups per hosting server: every hop fan-out and exit-bucket
  // spray owes each peer MULTIPLE envelopes, which is what per-peer
  // coalescing packs into one bundle frame.
  const size_t num_hosts = width / 2;
  Rng setup_rng = Rng::FromOsEntropy();
  KemKeypair driver_key = KemKeyGen(setup_rng);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<std::unique_ptr<NodeProcess>> procs;
  std::vector<MeshPeer> roster;
  std::vector<uint32_t> hosts;
  for (uint32_t g = 0; g < width; g++) {
    hosts.push_back(static_cast<uint32_t>(g / 2) + 1);
  }
  // Two-region matrix: the low half of the server ids is region 0, the
  // high half region 1, the driver sits in region 0.
  auto region = [&](uint32_t id) {
    return id == kMeshDriverId ? 0 : (id - 1 < num_hosts / 2 ? 0 : 1);
  };
  auto profile_for = [&](uint32_t from, uint32_t to) {
    WanProfile profile;
    if (!opts.wan_matrix) {
      profile.delay = opts.wan_delay;
    } else if (region(from) == region(to)) {
      profile.delay = opts.intra_delay;
    } else {
      profile.delay = opts.cross_delay;
      profile.bytes_per_ms = opts.cross_bytes_per_ms;
    }
    return profile;
  };
  for (uint32_t h = 1; h <= num_hosts; h++) {
    KemKeypair key = KemKeyGen(setup_rng);
    pools.push_back(std::make_unique<ThreadPool>(3));
    auto proc = std::make_unique<NodeProcess>(h, Variant::kTrap, key,
                                              driver_key.pk, /*max_rounds=*/8,
                                              pools.back().get());
    for (uint32_t p = 1; p <= num_hosts; p++) {
      if (p != h) {
        proc->set_peer_profile(p, profile_for(h, p));
      }
    }
    proc->set_peer_profile(kMeshDriverId, profile_for(h, kMeshDriverId));
    if (!proc->Listen(0)) {
      std::fprintf(stderr, "listen failed\n");
      std::exit(1);
    }
    proc->Start();
    roster.push_back(MeshPeer{h, "127.0.0.1", proc->port(), key.pk});
    procs.push_back(std::move(proc));
  }
  TcpPeerMesh mesh(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  // The driver is remote too: its entry flush rides the same WAN.
  for (uint32_t p = 1; p <= num_hosts; p++) {
    mesh.set_peer_profile(p, profile_for(kMeshDriverId, p));
  }
  mesh.SetRoster(roster);
  if (!mesh.ConnectAndPushRoster()) {
    std::fprintf(stderr, "roster push failed\n");
    std::exit(1);
  }
  for (uint32_t g = 0; g < width; g++) {
    if (!mesh.SendHostGroup(hosts[g], g, fx.round->group(g).dkg())) {
      std::fprintf(stderr, "host-group push failed\n");
      std::exit(1);
    }
  }

  FleetResult result;
  {
    DistributedRoundDriver driver(&mesh, hosts);
    driver.set_round_timeout(std::chrono::seconds(120));
    auto t0 = Clock::now();
    if (opts.sequential) {
      for (EngineRound& spec : specs) {
        auto got = driver.Wait(driver.Submit(std::move(spec)));
        if (got.aborted) {
          std::fprintf(stderr, "mesh round aborted: %s\n",
                       got.abort_reason.c_str());
          std::exit(1);
        }
      }
    } else {
      std::vector<uint64_t> tickets;
      for (EngineRound& spec : specs) {
        tickets.push_back(driver.Submit(std::move(spec)));
      }
      for (uint64_t ticket : tickets) {
        auto got = driver.Wait(ticket);
        if (got.aborted) {
          std::fprintf(stderr, "mesh round aborted: %s\n",
                       got.abort_reason.c_str());
          std::exit(1);
        }
      }
    }
    result.seconds = SecondsSince(t0);
    result.wire.Add(mesh.Stats());
    for (auto& proc : procs) {
      result.wire.Add(proc->TransportStats());
    }
    mesh.Stop();
  }
  for (auto& proc : procs) {
    proc->Stop();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  PrintHeader("Distributed pipelined rounds (loopback TCP mesh, measured)",
              "§4.7/Fig 10-11: a new batch enters the network every "
              "layer-time; WAN stalls hide behind bundled async sends");

  Fixture fx(smoke);
  const size_t in_flight = smoke ? 3 : 4;
  const size_t width = fx.round->NumGroups();
  const size_t layers = fx.layers;
  const double msgs_per_round = static_cast<double>(fx.users_per_round);
  const unsigned hw_threads = std::thread::hardware_concurrency();

  // ---- In-process engine baseline.
  std::vector<EngineRound> engine_specs = fx.TakeSpecs(in_flight);
  double engine_seconds = 0;
  {
    RoundEngine engine(&ThreadPool::Shared());
    auto t0 = Clock::now();
    std::vector<uint64_t> tickets;
    for (EngineRound& spec : engine_specs) {
      tickets.push_back(engine.Submit(std::move(spec)));
    }
    for (uint64_t ticket : tickets) {
      auto result = engine.Wait(ticket);
      if (result.aborted) {
        std::fprintf(stderr, "engine round aborted: %s\n",
                     result.abort_reason.c_str());
        return 1;
      }
    }
    engine_seconds = SecondsSince(t0);
  }

  // Emulated one-way WAN latency per frame. Loopback is ~free; this is
  // the stall both pipelining and the sender lanes exist to hide.
  const auto wan_delay = std::chrono::milliseconds(smoke ? 40 : 80);
  FleetOpts seq_opts;
  seq_opts.sequential = true;
  seq_opts.wan_delay = wan_delay;
  FleetOpts pipelined_opts;
  pipelined_opts.wan_delay = wan_delay;
  // Two-region matrix: cheap intra-region links, slow bandwidth-capped
  // cross-region links (Figure 10/11's geo-distributed shape).
  FleetOpts matrix_opts;
  matrix_opts.wan_matrix = true;
  matrix_opts.intra_delay = std::chrono::milliseconds(smoke ? 10 : 20);
  matrix_opts.cross_delay = std::chrono::milliseconds(smoke ? 40 : 80);
  matrix_opts.cross_bytes_per_ms = 8192;  // ~8 MB/s transcontinental

  FleetResult seq = RunFleet(fx, fx.TakeSpecs(in_flight), seq_opts);
  FleetResult pipelined =
      RunFleet(fx, fx.TakeSpecs(in_flight), pipelined_opts);
  FleetResult wan_matrix = RunFleet(fx, fx.TakeSpecs(in_flight), matrix_opts);

  const double total_msgs = msgs_per_round * static_cast<double>(in_flight);
  auto tput = [&](const FleetResult& r) { return total_msgs / r.seconds; };
  const double engine_tput = total_msgs / engine_seconds;
  // Sequential wall-clock divided by every (round, layer) pair: the
  // effective per-hop latency including the wire.
  const double per_hop_ms =
      seq.seconds * 1000.0 / static_cast<double>(in_flight * layers);
  const double pipelining_gain = seq.seconds / pipelined.seconds;

  std::printf("\n%zu rounds x %zu msgs, %zu groups, %zu layers, trap "
              "variant, %lld ms emulated WAN latency, %u hw threads:\n",
              in_flight, fx.users_per_round, width, layers,
              static_cast<long long>(wan_delay.count()), hw_threads);
  std::printf("  %-24s %8s %10s %10s %8s %6s\n", "executor", "seconds",
              "msgs/s", "KiB sent", "frames", "fill");
  auto row = [&](const char* name, double seconds, const WireTotals* wire) {
    std::printf("  %-24s %8.3f %10.1f", name, seconds, total_msgs / seconds);
    if (wire != nullptr) {
      std::printf(" %10.1f %8llu %6.2f",
                  static_cast<double>(wire->bytes) / 1024.0,
                  static_cast<unsigned long long>(wire->frames),
                  wire->BundleFill());
    }
    std::printf("\n");
  };
  row("engine (in-proc)", engine_seconds, nullptr);
  row("mesh sequential", seq.seconds, &seq.wire);
  row("mesh pipelined", pipelined.seconds, &pipelined.wire);
  row("mesh pipelined (matrix)", wan_matrix.seconds, &wan_matrix.wire);
  std::printf("  pipelining gain over sequential: %.2fx (%zu rounds in "
              "flight)\n",
              pipelining_gain, in_flight);
  std::printf("  per-hop latency over the mesh: %.2f ms (sequential, "
              "incl. wire)\n",
              per_hop_ms);

  {
    BenchJson json("distributed_pipeline");
    json.Bool("smoke", smoke);
    json.Num("rounds_in_flight", static_cast<double>(in_flight));
    json.Num("msgs_per_round", msgs_per_round);
    json.Num("groups", static_cast<double>(width));
    json.Num("layers", static_cast<double>(layers));
    json.Str("variant", "trap");
    json.Num("wan_delay_ms", static_cast<double>(wan_delay.count()));
    json.Num("hardware_threads", static_cast<double>(hw_threads));
    json.Num("per_hop_latency_ms", per_hop_ms);
    json.Num("pipelining_gain", pipelining_gain);
    auto emit = [&](const char* name, double seconds,
                    const WireTotals* wire) {
      size_t r = json.Row();
      json.RowStr(r, "executor", name);
      json.RowNum(r, "seconds", seconds);
      json.RowNum(r, "msgs_per_second", total_msgs / seconds);
      if (wire != nullptr) {
        json.RowNum(r, "bytes_sent", static_cast<double>(wire->bytes));
        json.RowNum(r, "frames_sent", static_cast<double>(wire->frames));
        json.RowNum(r, "bundles_sent", static_cast<double>(wire->bundles));
        json.RowNum(r, "bundle_fill", wire->BundleFill());
        json.RowNum(r, "queue_depth_peak",
                    static_cast<double>(wire->queue_peak));
        json.RowNum(r, "send_queue_drops",
                    static_cast<double>(wire->drops));
      }
    };
    emit("engine", engine_seconds, nullptr);
    emit("mesh_sequential", seq.seconds, &seq.wire);
    emit("mesh_pipelined", pipelined.seconds, &pipelined.wire);
    emit("mesh_wan_matrix", wan_matrix.seconds, &wan_matrix.wire);
  }

  if (tput(pipelined) <= tput(seq)) {
    std::fprintf(stderr,
                 "FAIL: pipelined mesh throughput (%.1f msgs/s) is not "
                 "above sequential (%.1f msgs/s)\n",
                 tput(pipelined), tput(seq));
    return 1;
  }
  std::printf("PASS: pipelined beats sequential (%.2fx)\n", pipelining_gain);
  return 0;
}
