// Distributed deployment shape: per-server nodes exchanging protocol
// messages, instead of the in-process Round orchestrator.
//
// Each AtomNode holds exactly ONE server's key shares and reacts to
// messages. Two groups of three servers mix a batch across two hops (one
// forwarding hop, one exit hop).
//
// Two modes:
//
//   ./build/examples/distributed_nodes
//       In-process: six AtomNodes on a LocalBus (the original demo).
//
//   ./build/examples/distributed_nodes --tcp [--seed N]
//       Multi-process: spawns six ./atom_server processes (one per
//       server) over loopback TCP with encrypted authenticated links,
//       drives the SAME seeded round through BOTH transports, and checks
//       the group outputs are byte-identical. Then it SIGKILLs a
//       mid-chain server and verifies the next round surfaces an abort
//       instead of hanging. Exits nonzero on any mismatch — CI runs this
//       as the multi-process transport smoke test.
//
//   ./build/examples/distributed_nodes --tcp --pipelined [--seed N]
//       Distributed pipelined rounds (§4.7 throughput mode over real
//       sockets): spawns one ./atom_server process per topology group
//       (identity keys loaded via --keyfile), ships each group's DKG
//       material over the control plane, then drives THREE overlapping
//       engine rounds through the DistributedRoundDriver — round r+1's
//       intake enters the network while round r is still mixing — and
//       checks every RoundResult byte-for-byte against the in-process
//       RoundEngine running the same seeded specs. Exits nonzero on any
//       divergence — CI runs this as the pipelined-mesh smoke test.
//
//   ./build/examples/distributed_nodes --tcp --pipelined --net-clients
//       [--seed N]
//       Full deployment shape including the client ingress tier: users
//       register Schnorr identities with the Directory, the reactor
//       gateway fronts the round's streaming intake, and every
//       submission arrives over an authenticated TCP ClientSession —
//       round r+1's intake fills through the gateway while round r mixes
//       on the atom_server fleet. Every RoundResult is byte-compared
//       against a twin round whose identical submissions were made
//       in-process. CI runs this as the ingress smoke test.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/directory.h"
#include "src/core/node.h"
#include "src/core/round.h"
#include "src/core/wire.h"
#include "src/net/client_session.h"
#include "src/net/gateway.h"
#include "src/net/mesh.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/net/round_driver.h"
#include "src/net/socket.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/hex.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace {

using namespace atom;

// Observability flags (see main): --trace-out arms the span collector,
// --metrics-out / --metrics-port export the metrics plane. The pipelined
// modes fill g_fleet_exposition with the MERGED fleet view (driver
// registry + every server's kMetricsSnapshot reply) before tearing the
// mesh down; main() writes it to --metrics-out.
std::string g_trace_out;
std::string g_metrics_out;
int g_metrics_port = -1;
std::string g_fleet_exposition;

// Pulls every live server's registry over the control plane and merges it
// with the local (driver-side) registry into one fleet-wide snapshot.
obs::MetricsSnapshot CollectFleetMetrics(TcpPeerMesh& mesh,
                                         const std::vector<uint32_t>& hosts) {
  obs::MetricsSnapshot fleet = obs::Registry::Global().Snapshot();
  size_t fetched = 0;
  for (uint32_t host : hosts) {
    auto snap = mesh.FetchMetricsSnapshot(host);
    if (snap.has_value()) {
      fleet.MergeFrom(*snap);
      fetched++;
    } else {
      std::fprintf(stderr, "metrics snapshot from server %u timed out\n",
                   host);
    }
  }
  std::printf("fleet metrics: merged %zu server registries + the driver "
              "(%zu counters, %zu gauges, %zu histograms)\n",
              fetched, fleet.counters.size(), fleet.gauges.size(),
              fleet.histograms.size());
  // A few load-bearing series, so the merged view is visible in the smoke
  // log without opening the full exposition.
  uint64_t mesh_bytes = 0, pool_tasks = 0;
  for (const auto& [name, value] : fleet.counters) {
    if (name.rfind("atom_mesh_bytes_sent_total", 0) == 0) {
      mesh_bytes += value;
    } else if (name.rfind("atom_pool_tasks_total", 0) == 0) {
      pool_tasks += value;
    }
  }
  std::printf("  atom_mesh_bytes_sent_total (fleet) = %llu\n",
              static_cast<unsigned long long>(mesh_bytes));
  std::printf("  atom_pool_tasks_total (fleet)      = %llu\n",
              static_cast<unsigned long long>(pool_tasks));
  return fleet;
}

const char* kPosts[] = {"first!", "hello from nowhere", "mix me",
                        "fourth message"};

CiphertextBatch MakeBatch(const Point& pk, Rng& rng) {
  CiphertextBatch batch;
  for (const char* post : kPosts) {
    Bytes padded = ToBytes(post);
    padded.resize(kEmbedCapacity, 0);
    batch.push_back(
        {ElGamalEncrypt(pk, *EmbedMessage(BytesView(padded)), rng)});
  }
  return batch;
}

NodeMsg EntryMsg(uint32_t gid, CiphertextBatch batch,
                 std::vector<Point> next_pks) {
  NodeMsg msg;
  msg.type = NodeMsg::Type::kShuffleStep;
  msg.gid = gid;
  msg.chain_pos = 0;
  msg.batch = std::move(batch);
  msg.next_pks = std::move(next_pks);
  return msg;
}

void PrintPlaintexts(const CiphertextBatch& batch) {
  for (const auto& vec : batch) {
    auto m = ElGamalDecrypt(Scalar::Zero(), vec[0]);
    if (!m.has_value()) {
      continue;
    }
    auto bytes = ExtractMessage(*m);
    if (!bytes.has_value()) {
      continue;
    }
    size_t end = bytes->size();
    while (end > 0 && (*bytes)[end - 1] == 0) {
      end--;
    }
    std::printf("  > %.*s\n", static_cast<int>(end),
                reinterpret_cast<const char*>(bytes->data()));
  }
}

// ------------------------------------------------------- in-process mode

int RunLocal() {
  Rng rng = Rng::FromOsEntropy();
  std::vector<std::unique_ptr<AtomNode>> servers;
  LocalBus bus;
  auto add_group = [&](uint32_t gid, uint32_t first_id) {
    DkgResult dkg = RunDkg(DkgParams{3, 3}, rng);
    std::vector<uint32_t> chain = {first_id, first_id + 1, first_id + 2};
    for (uint32_t pos = 0; pos < 3; pos++) {
      auto node = std::make_unique<AtomNode>(first_id + pos, Variant::kTrap);
      node->JoinGroup(gid, MakeNodeGroupKeys(dkg, chain, pos));
      bus.RegisterNode(node.get());
      servers.push_back(std::move(node));
    }
    return dkg;
  };
  auto g0 = add_group(0, 100);
  auto g1 = add_group(1, 200);
  std::printf("6 server nodes up: group 0 = {100,101,102}, "
              "group 1 = {200,201,202}\n");

  bus.Send(Envelope{100, EntryMsg(0, MakeBatch(g0.pub.group_pk, rng),
                                  {g1.pub.group_pk})});
  if (!bus.Run(rng)) {
    std::fprintf(stderr, "hop 1 aborted: %s\n",
                 bus.aborts()[0].abort_reason.c_str());
    return 1;
  }
  std::printf("hop 1 complete: group 0 forwarded %zu ciphertexts to "
              "group 1\n",
              bus.outputs()[0].subs[0].size());
  CiphertextBatch forwarded = bus.outputs()[0].subs[0];
  bus.ClearOutputs();

  bus.Send(Envelope{200, EntryMsg(1, std::move(forwarded), {})});
  if (!bus.Run(rng)) {
    std::fprintf(stderr, "hop 2 aborted\n");
    return 1;
  }
  std::printf("hop 2 complete; anonymized output:\n");
  PrintPlaintexts(bus.outputs()[0].subs[0]);
  return 0;
}

// ----------------------------------------------------- multi-process mode

struct ServerHandle {
  pid_t pid = -1;
  int stdin_w = -1;   // closing this tells the child to exit
  uint16_t port = 0;
  std::string keyfile;  // temp keystore file, removed at reap
};

std::string ServerBinaryPath(const char* argv0) {
  std::string self = argv0;
  size_t slash = self.rfind('/');
  std::string dir = (slash == std::string::npos) ? "." : self.substr(0, slash);
  return dir + "/atom_server";
}

// Spawns one atom_server. With `use_keyfile` the identity key travels via
// a private temp file and --keyfile (the keystore path a real deployment
// uses); otherwise it rides argv as --sk (the loopback demo fallback).
bool SpawnServer(const std::string& binary, uint32_t id, const Scalar& sk,
                 const Point& driver_pk, bool use_keyfile,
                 ServerHandle* out) {
  int in_pipe[2], out_pipe[2];
  if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
    return false;
  }
  std::string id_str = std::to_string(id);
  auto sk_bytes = sk.ToBytes();
  std::string sk_hex = HexEncode(BytesView(sk_bytes.data(), sk_bytes.size()));
  std::string pk_hex = HexEncode(BytesView(driver_pk.Encode()));
  std::string keyfile;
  if (use_keyfile) {
    keyfile = "/tmp/atom_server_key_" +
              std::to_string(static_cast<long>(getpid())) + "_" + id_str;
    // Recorded before any failure path so ReapAll always unlinks it, and
    // created 0600 + O_EXCL: the file holds a long-term secret, and a
    // pre-existing entry (stale run, planted symlink) must fail, not be
    // followed.
    out->keyfile = keyfile;
    unlink(keyfile.c_str());
    int fd = open(keyfile.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
    if (fd < 0) {
      return false;
    }
    std::string line = sk_hex + "\n";
    if (write(fd, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      close(fd);
      return false;
    }
    close(fd);
  }
  pid_t pid = fork();
  if (pid < 0) {
    return false;
  }
  if (pid == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    if (use_keyfile) {
      execl(binary.c_str(), "atom_server", "--id", id_str.c_str(),
            "--keyfile", keyfile.c_str(), "--driver-pk", pk_hex.c_str(),
            static_cast<char*>(nullptr));
    } else {
      execl(binary.c_str(), "atom_server", "--id", id_str.c_str(), "--sk",
            sk_hex.c_str(), "--driver-pk", pk_hex.c_str(),
            static_cast<char*>(nullptr));
    }
    std::fprintf(stderr, "exec %s failed\n", binary.c_str());
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  // The child prints ATOM_SERVER_PORT=<port> once it listens.
  FILE* child_out = fdopen(out_pipe[0], "r");
  char line[128];
  unsigned port = 0;
  if (child_out == nullptr || std::fgets(line, sizeof(line), child_out) ==
                                  nullptr ||
      std::sscanf(line, "ATOM_SERVER_PORT=%u", &port) != 1) {
    if (child_out != nullptr) {
      std::fclose(child_out);
    }
    kill(pid, SIGKILL);
    return false;
  }
  std::fclose(child_out);  // closes out_pipe[0]; child writes nothing else
  out->pid = pid;
  out->stdin_w = in_pipe[1];
  out->port = static_cast<uint16_t>(port);
  return true;
}

void ReapAll(std::vector<ServerHandle>& servers) {
  for (ServerHandle& server : servers) {
    if (server.stdin_w >= 0) {
      close(server.stdin_w);  // EOF -> child exits
      server.stdin_w = -1;
    }
  }
  for (ServerHandle& server : servers) {
    if (server.pid < 0) {
      continue;
    }
    for (int i = 0; i < 100; i++) {  // ~1s of patience, then the hammer
      if (waitpid(server.pid, nullptr, WNOHANG) != 0) {
        server.pid = -1;
        break;
      }
      usleep(10'000);
    }
    if (server.pid >= 0) {
      kill(server.pid, SIGKILL);
      waitpid(server.pid, nullptr, 0);
      server.pid = -1;
    }
  }
  for (ServerHandle& server : servers) {
    if (!server.keyfile.empty()) {
      unlink(server.keyfile.c_str());
      server.keyfile.clear();
    }
  }
}

int RunTcp(const char* argv0, uint64_t seed) {
  signal(SIGPIPE, SIG_IGN);  // dead-child pipe writes must not kill us
  Rng rng(seed);
  std::string binary = ServerBinaryPath(argv0);

  // ---- Key material and groups, generated once and shared by both
  // transports so a seeded round is directly comparable.
  KemKeypair driver_key = KemKeyGen(rng);
  DkgResult g0 = RunDkg(DkgParams{3, 3}, rng);
  DkgResult g1 = RunDkg(DkgParams{3, 3}, rng);
  struct ServerSpec {
    uint32_t id;
    uint32_t gid;
    KemKeypair key;
    NodeGroupKeys group_keys;
  };
  std::vector<ServerSpec> specs;
  std::vector<uint32_t> chain0 = {100, 101, 102}, chain1 = {200, 201, 202};
  for (uint32_t pos = 0; pos < 3; pos++) {
    specs.push_back(ServerSpec{chain0[pos], 0, KemKeyGen(rng),
                               MakeNodeGroupKeys(g0, chain0, pos)});
  }
  for (uint32_t pos = 0; pos < 3; pos++) {
    specs.push_back(ServerSpec{chain1[pos], 1, KemKeyGen(rng),
                               MakeNodeGroupKeys(g1, chain1, pos)});
  }

  // ---- One real OS process per server.
  std::vector<ServerHandle> servers(specs.size());
  std::vector<MeshPeer> roster;
  for (size_t i = 0; i < specs.size(); i++) {
    if (!SpawnServer(binary, specs[i].id, specs[i].key.sk, driver_key.pk,
                     /*use_keyfile=*/false, &servers[i])) {
      std::fprintf(stderr, "failed to spawn atom_server for %u\n",
                   specs[i].id);
      ReapAll(servers);
      return 1;
    }
    roster.push_back(MeshPeer{specs[i].id, "127.0.0.1", servers[i].port,
                              specs[i].key.pk});
  }
  std::printf("6 atom_server processes up (pids");
  for (const ServerHandle& server : servers) {
    std::printf(" %d", static_cast<int>(server.pid));
  }
  std::printf("), loopback ports");
  for (const ServerHandle& server : servers) {
    std::printf(" %u", server.port);
  }
  std::printf("\n");

  // ---- Driver mesh: dial, authenticate, push roster + group keys.
  TcpPeerMesh driver(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  driver.SetRoster(roster);
  driver.set_dial_attempts(3);
  if (!driver.ConnectAndPushRoster()) {
    std::fprintf(stderr, "roster push failed\n");
    ReapAll(servers);
    return 1;
  }
  for (const ServerSpec& spec : specs) {
    if (!driver.SendJoinGroup(spec.id, spec.gid, spec.group_keys)) {
      std::fprintf(stderr, "join-group push to %u failed\n", spec.id);
      ReapAll(servers);
      return 1;
    }
  }
  std::printf("encrypted links up; roster and group keys distributed\n");

  // ---- The in-process twin: same keys, same seed, LocalBus transport.
  LocalBus local_bus;
  std::vector<std::unique_ptr<AtomNode>> local_nodes;
  for (const ServerSpec& spec : specs) {
    local_nodes.push_back(
        std::make_unique<AtomNode>(spec.id, Variant::kTrap));
    local_nodes.back()->JoinGroup(spec.gid, spec.group_keys);
    local_bus.RegisterNode(local_nodes.back().get());
  }

  CiphertextBatch batch = MakeBatch(g0.pub.group_pk, rng);
  Rng run_rng_local(seed + 1);
  Rng run_rng_mesh(seed + 1);

  auto run_hop = [&](uint32_t entry_server, const NodeMsg& entry,
                     const char* label) -> bool {
    local_bus.Send(Envelope{entry_server, entry});
    if (!local_bus.Run(run_rng_local)) {
      std::fprintf(stderr, "%s aborted on LocalBus\n", label);
      return false;
    }
    driver.Send(Envelope{entry_server, entry});
    if (!driver.Run(run_rng_mesh)) {
      std::fprintf(stderr, "%s aborted on mesh: %s\n", label,
                   driver.aborts().back().abort_reason.c_str());
      return false;
    }
    if (local_bus.outputs().size() != 1 || driver.outputs().size() != 1 ||
        EncodeNodeMsg(local_bus.outputs()[0]) !=
            EncodeNodeMsg(driver.outputs()[0])) {
      std::fprintf(stderr, "%s: transports DIVERGED\n", label);
      return false;
    }
    std::printf("%s: LocalBus and TCP mesh group outputs are "
                "byte-identical (%zu bytes)\n",
                label, EncodeNodeMsg(driver.outputs()[0]).size());
    return true;
  };

  if (!run_hop(100, EntryMsg(0, batch, {g1.pub.group_pk}), "hop 1")) {
    ReapAll(servers);
    return 1;
  }
  CiphertextBatch forwarded = driver.outputs()[0].subs[0];
  local_bus.ClearOutputs();
  driver.ClearOutputs();
  if (!run_hop(200, EntryMsg(1, forwarded, {}), "hop 2 (exit)")) {
    ReapAll(servers);
    return 1;
  }
  std::printf("anonymized output via 6 processes over TCP:\n");
  PrintPlaintexts(driver.outputs()[0].subs[0]);

  // ---- Fault demo: SIGKILL a mid-chain server; the next round must
  // surface an abort quickly, never hang.
  std::printf("killing server 101 (pid %d) mid-deployment...\n",
              static_cast<int>(servers[1].pid));
  kill(servers[1].pid, SIGKILL);
  waitpid(servers[1].pid, nullptr, 0);
  servers[1].pid = -1;
  driver.ClearOutputs();
  driver.set_dial_attempts(1);
  driver.Send(
      Envelope{100, EntryMsg(0, MakeBatch(g0.pub.group_pk, rng), {})});
  Rng run_rng_fault(seed + 2);
  if (driver.Run(run_rng_fault)) {
    std::fprintf(stderr, "round with a killed peer unexpectedly passed\n");
    ReapAll(servers);
    return 1;
  }
  std::printf("killed peer surfaced as abort: %s\n",
              driver.aborts().back().abort_reason.c_str());

  driver.Stop();
  ReapAll(servers);
  std::printf("multi-process transport smoke: OK\n");
  return 0;
}

// --------------------------------------------- pipelined multi-round mode

int RunPipelined(const char* argv0, uint64_t seed) {
  signal(SIGPIPE, SIG_IGN);
  std::string binary = ServerBinaryPath(argv0);

  // One key epoch, taken from the same seeded Round both executors use.
  RoundConfig config;
  config.params.variant = Variant::kTrap;
  config.params.num_servers = 6;
  config.params.num_groups = 4;
  config.params.group_size = 3;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = 64;
  config.beacon = ToBytes("distributed-pipelined-epoch");
  config.workers = 2;

  Rng rng(seed);
  std::printf("setting up %zu groups of %zu servers (one DKG epoch)...\n",
              config.params.num_groups, config.params.group_size);
  Round round(config, rng);
  const size_t width = round.NumGroups();

  // Three rounds of users enter the intake back to back; each drained
  // spec carries its own entry batches, seed, and trap commitments.
  constexpr size_t kRounds = 3;
  constexpr uint32_t kUsersPerRound = 6;
  uint64_t next_client = 1000;
  std::vector<EngineRound> specs;
  for (size_t r = 0; r < kRounds; r++) {
    for (uint32_t u = 0; u < kUsersPerRound; u++) {
      uint32_t gid = u % static_cast<uint32_t>(width);
      std::string msg = "pipelined round " + std::to_string(r) +
                        " message " + std::to_string(u);
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(ToBytes(msg)),
                                    round.layout(), rng);
      sub.client_id = next_client++;
      if (!round.SubmitTrap(sub)) {
        std::fprintf(stderr, "submission rejected\n");
        return 1;
      }
    }
    specs.push_back(round.TakeEngineRound({}, rng));
  }

  // Reference: the in-process engine runs copies of the same specs.
  std::vector<RoundResult> reference;
  {
    RoundEngine engine(&ThreadPool::Shared());
    std::vector<uint64_t> tickets;
    for (const EngineRound& spec : specs) {
      tickets.push_back(engine.Submit(EngineRound(spec)));
    }
    for (uint64_t ticket : tickets) {
      reference.push_back(engine.Wait(ticket).round);
    }
  }

  // The fleet: one atom_server process per topology group, identity keys
  // delivered through --keyfile (the keystore path).
  KemKeypair driver_key = KemKeyGen(rng);
  std::vector<ServerHandle> servers(width);
  std::vector<MeshPeer> roster;
  std::vector<uint32_t> hosts;
  std::vector<KemKeypair> server_keys;
  for (uint32_t g = 0; g < width; g++) {
    server_keys.push_back(KemKeyGen(rng));
    hosts.push_back(g + 1);
  }
  for (uint32_t g = 0; g < width; g++) {
    if (!SpawnServer(binary, hosts[g], server_keys[g].sk, driver_key.pk,
                     /*use_keyfile=*/true, &servers[g])) {
      std::fprintf(stderr, "failed to spawn atom_server %u\n", hosts[g]);
      ReapAll(servers);
      return 1;
    }
    roster.push_back(MeshPeer{hosts[g], "127.0.0.1", servers[g].port,
                              server_keys[g].pk});
  }
  std::printf("%zu atom_server processes up (one per group, keys via "
              "--keyfile), loopback ports",
              width);
  for (const ServerHandle& server : servers) {
    std::printf(" %u", server.port);
  }
  std::printf("\n");

  TcpPeerMesh mesh(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  mesh.SetRoster(roster);
  mesh.set_dial_attempts(3);
  if (!mesh.ConnectAndPushRoster()) {
    std::fprintf(stderr, "roster push failed\n");
    ReapAll(servers);
    return 1;
  }
  for (uint32_t g = 0; g < width; g++) {
    if (!mesh.SendHostGroup(hosts[g], g, round.group(g).dkg())) {
      std::fprintf(stderr, "host-group push to %u failed\n", hosts[g]);
      ReapAll(servers);
      return 1;
    }
  }
  std::printf("encrypted links up; group DKG material distributed\n");

  int rc = 0;
  {
    DistributedRoundDriver driver(&mesh, hosts);
    driver.set_round_timeout(std::chrono::seconds(60));

    // All three rounds enter the network before any is waited on: round
    // r+1's intake flushes while round r is still mixing.
    std::vector<uint64_t> tickets;
    for (EngineRound& spec : specs) {
      tickets.push_back(driver.Submit(std::move(spec)));
    }
    std::printf("%zu rounds in flight over the mesh\n", driver.InFlight());

    for (size_t r = 0; r < kRounds && rc == 0; r++) {
      RoundResult mesh_result = driver.Wait(tickets[r]).round;
      const RoundResult& want = reference[r];
      if (mesh_result.aborted || want.aborted) {
        std::fprintf(stderr, "round %zu aborted (mesh: %s / engine: %s)\n",
                     r, mesh_result.abort_reason.c_str(),
                     want.abort_reason.c_str());
        rc = 1;
        break;
      }
      if (mesh_result.plaintexts != want.plaintexts ||
          mesh_result.traps_seen != want.traps_seen ||
          mesh_result.inner_seen != want.inner_seen) {
        std::fprintf(stderr, "round %zu DIVERGED from the engine\n", r);
        rc = 1;
        break;
      }
      std::printf("round %zu: mesh RoundResult byte-identical to the "
                  "engine (%zu plaintexts, %llu traps)\n",
                  r, mesh_result.plaintexts.size(),
                  static_cast<unsigned long long>(mesh_result.traps_seen));
      for (const Bytes& plaintext : mesh_result.plaintexts) {
        size_t end = plaintext.size();
        while (end > 0 && plaintext[end - 1] == 0) {
          end--;
        }
        std::printf("  > %.*s\n", static_cast<int>(end),
                    reinterpret_cast<const char*>(plaintext.data()));
      }
    }
    // Fleet-wide telemetry: every server publishes its registry upstream
    // via kMetricsSnapshot while the links are still up.
    if (rc == 0) {
      g_fleet_exposition = CollectFleetMetrics(mesh, hosts).Exposition();
    }
    mesh.Stop();  // joins reader threads before the driver dies
  }
  ReapAll(servers);
  if (rc == 0) {
    std::printf("distributed pipelined rounds: OK\n");
  }
  return rc;
}

// ----------------------------------- pipelined rounds with TCP clients

// The full deployment shape: registered clients -> ReactorGateway ->
// streaming intake -> DistributedRoundDriver -> atom_server fleet, with a
// twin round fed the identical submissions in process as the oracle.
int RunPipelinedNetClients(const char* argv0, uint64_t seed) {
  signal(SIGPIPE, SIG_IGN);
  std::string binary = ServerBinaryPath(argv0);

  RoundConfig config;
  config.params.variant = Variant::kTrap;
  config.params.num_servers = 6;
  config.params.num_groups = 4;
  config.params.group_size = 3;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = 64;
  config.beacon = ToBytes("distributed-ingress-epoch");
  config.workers = 2;

  // Twin rounds from one seed: byte-identical groups, keys, trustees.
  // `net` is fed over TCP ClientSessions; `ref` gets the same submission
  // bytes via in-process SubmitTrap, in the same per-shard order.
  Rng rng_ref(seed);
  Rng rng_net(seed);
  std::printf("setting up twin key epochs (%zu groups of %zu servers)...\n",
              config.params.num_groups, config.params.group_size);
  Round ref(config, rng_ref);
  Round net(config, rng_net);
  const size_t width = net.NumGroups();

  constexpr size_t kRounds = 3;
  constexpr uint32_t kUsersPerRound = 6;

  // Users register Schnorr identities with the Directory; the gateway
  // authenticates against the synced global registry.
  Directory directory(ToBytes("ingress-example-genesis"));
  Rng key_rng(seed + 11);
  std::map<uint64_t, KemKeypair> client_keys;
  for (uint32_t u = 0; u < kUsersPerRound; u++) {
    uint64_t id = 1000 + u;
    SchnorrKeypair kp = SchnorrKeyGen(key_rng);
    if (!directory.RegisterClient(MakeClientRegistration(id, kp, key_rng))) {
      std::fprintf(stderr, "client registration failed\n");
      return 1;
    }
    client_keys[id] = KemKeypair{kp.sk, kp.pk};
  }
  // Duplicate ids are rejected globally at registration time.
  SchnorrKeypair squatter = SchnorrKeyGen(key_rng);
  if (directory.RegisterClient(
          MakeClientRegistration(1000, squatter, key_rng))) {
    std::fprintf(stderr, "duplicate registration unexpectedly accepted\n");
    return 1;
  }
  ClientRegistry registry;
  registry.SeedFromDirectory(directory);
  std::printf("%zu clients registered (global registry; duplicate id "
              "rejected at registration)\n",
              registry.size());

  // All submissions prebuilt from one generator so both paths consume
  // byte-identical ciphertexts.
  Rng sub_rng(seed + 23);
  std::vector<std::vector<TrapSubmission>> subs(kRounds);
  for (size_t r = 0; r < kRounds; r++) {
    for (uint32_t u = 0; u < kUsersPerRound; u++) {
      uint32_t gid = u % static_cast<uint32_t>(width);
      std::string msg = "ingress round " + std::to_string(r) + " message " +
                        std::to_string(u);
      auto sub = MakeTrapSubmission(ref.EntryPk(gid), gid, ref.TrusteePk(),
                                    BytesView(ToBytes(msg)), ref.layout(),
                                    sub_rng);
      sub.client_id = 1000 + u;
      subs[r].push_back(std::move(sub));
    }
  }

  // Reference: in-process submission, same per-round epochs.
  std::vector<RoundResult> reference;
  {
    Rng take_ref(seed + 31);
    RoundEngine engine(&ThreadPool::Shared());
    std::vector<uint64_t> tickets;
    for (size_t r = 0; r < kRounds; r++) {
      for (const TrapSubmission& sub : subs[r]) {
        if (!ref.SubmitTrap(sub)) {
          std::fprintf(stderr, "reference submission rejected\n");
          return 1;
        }
      }
      tickets.push_back(engine.Submit(ref.TakeEngineRound({}, take_ref)));
    }
    for (uint64_t ticket : tickets) {
      reference.push_back(engine.Wait(ticket).round);
    }
  }

  // The atom_server fleet, one process per topology group.
  KemKeypair driver_key = KemKeyGen(key_rng);
  std::vector<ServerHandle> servers(width);
  std::vector<MeshPeer> roster;
  std::vector<uint32_t> hosts;
  std::vector<KemKeypair> server_keys;
  for (uint32_t g = 0; g < width; g++) {
    server_keys.push_back(KemKeyGen(key_rng));
    hosts.push_back(g + 1);
  }
  for (uint32_t g = 0; g < width; g++) {
    if (!SpawnServer(binary, hosts[g], server_keys[g].sk, driver_key.pk,
                     /*use_keyfile=*/true, &servers[g])) {
      std::fprintf(stderr, "failed to spawn atom_server %u\n", hosts[g]);
      ReapAll(servers);
      return 1;
    }
    roster.push_back(MeshPeer{hosts[g], "127.0.0.1", servers[g].port,
                              server_keys[g].pk});
  }
  TcpPeerMesh mesh(TcpPeerMesh::Role::kDriver, kMeshDriverId, driver_key);
  mesh.SetRoster(roster);
  mesh.set_dial_attempts(3);
  if (!mesh.ConnectAndPushRoster()) {
    std::fprintf(stderr, "roster push failed\n");
    ReapAll(servers);
    return 1;
  }
  for (uint32_t g = 0; g < width; g++) {
    if (!mesh.SendHostGroup(hosts[g], g, net.group(g).dkg())) {
      std::fprintf(stderr, "host-group push to %u failed\n", hosts[g]);
      ReapAll(servers);
      return 1;
    }
  }
  std::printf("%zu atom_server processes up; DKG material distributed\n",
              width);

  int rc = 0;
  {
    // The ingress tier: gateway fronting the net round's streaming
    // intake, one authenticated ClientSession per registered user.
    KemKeypair gateway_key = KemKeyGen(key_rng);
    GatewayConfig gateway_config;
    gateway_config.verify_workers = config.workers;
    ReactorGateway gateway(&net, &registry, gateway_key, gateway_config);
    if (!gateway.Listen(0)) {
      std::fprintf(stderr, "gateway listen failed\n");
      ReapAll(servers);
      return 1;
    }
    gateway.Start();
    std::vector<std::unique_ptr<ClientSession>> sessions;
    for (uint32_t u = 0; u < kUsersPerRound; u++) {
      uint64_t id = 1000 + u;
      auto session = ClientSession::Connect("127.0.0.1", gateway.port(), id,
                                            client_keys[id], gateway_key.pk);
      if (session == nullptr) {
        std::fprintf(stderr, "client %llu failed to authenticate\n",
                     static_cast<unsigned long long>(id));
        ReapAll(servers);
        return 1;
      }
      sessions.push_back(std::move(session));
    }
    std::printf("gateway up on port %u; %zu authenticated client "
                "sessions connected\n",
                gateway.port(), sessions.size());

    DistributedRoundDriver driver(&mesh, hosts);
    driver.set_round_timeout(std::chrono::seconds(60));
    Rng take_net(seed + 31);
    std::vector<uint64_t> tickets;
    for (size_t r = 0; r < kRounds; r++) {
      // Open intake for round r, stream this round's submissions over
      // TCP, cut off, and ship — the previous rounds are still mixing on
      // the fleet while this intake fills.
      gateway.OpenRound(r + 1);
      for (uint32_t u = 0; u < kUsersPerRound; u++) {
        if (!sessions[u]->SubmitAndWait(subs[r][u])) {
          std::fprintf(stderr, "round %zu: client %u rejected\n", r, u);
          rc = 1;
          break;
        }
      }
      if (rc != 0) {
        break;
      }
      gateway.Cutoff();
      tickets.push_back(driver.Submit(net.TakeEngineRound({}, take_net)));
      std::printf("round %zu shipped to the fleet (%zu in flight); "
                  "intake reopens immediately\n",
                  r, driver.InFlight());
    }

    for (size_t r = 0; rc == 0 && r < tickets.size(); r++) {
      RoundResult got = driver.Wait(tickets[r]).round;
      const RoundResult& want = reference[r];
      if (got.aborted || want.aborted) {
        std::fprintf(stderr, "round %zu aborted (mesh: %s / ref: %s)\n", r,
                     got.abort_reason.c_str(), want.abort_reason.c_str());
        rc = 1;
        break;
      }
      if (got.plaintexts != want.plaintexts ||
          got.traps_seen != want.traps_seen ||
          got.inner_seen != want.inner_seen) {
        std::fprintf(stderr,
                     "round %zu: TCP-client intake DIVERGED from "
                     "in-process submission\n",
                     r);
        rc = 1;
        break;
      }
      std::printf("round %zu: RoundResult byte-identical to in-process "
                  "submission (%zu plaintexts, %llu traps)\n",
                  r, got.plaintexts.size(),
                  static_cast<unsigned long long>(got.traps_seen));
    }
    sessions.clear();
    gateway.Stop();
    if (rc == 0) {
      g_fleet_exposition = CollectFleetMetrics(mesh, hosts).Exposition();
    }
    mesh.Stop();
  }
  ReapAll(servers);
  if (rc == 0) {
    std::printf("distributed pipelined rounds with TCP clients: OK\n");
  }
  return rc;
}

// Scrapes the local --metrics-port endpoint the way Prometheus (or curl)
// would, and sanity-checks the payload, so CI exercises the real HTTP
// path instead of just the in-process exposition call.
bool ScrapeMetricsEndpoint(uint16_t port) {
  auto sock = TcpSocket::Dial("127.0.0.1", port);
  if (!sock.has_value()) {
    std::fprintf(stderr, "metrics scrape: dial failed\n");
    return false;
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (!sock->SendAll(BytesView(reinterpret_cast<const uint8_t*>(
                                   request.data()),
                               request.size()))) {
    std::fprintf(stderr, "metrics scrape: send failed\n");
    return false;
  }
  sock->SetRecvTimeout(5000);
  std::string response;
  uint8_t buf[4096];
  // RecvAll wants exact counts; drain byte-wise until EOF (the server
  // closes after one response, and the payload is small).
  for (;;) {
    if (!sock->RecvAll(buf, 1)) {
      break;
    }
    response.push_back(static_cast<char>(buf[0]));
    if (response.size() > (1u << 24)) {
      break;
    }
  }
  if (response.rfind("HTTP/1.0 200 OK", 0) != 0 ||
      response.find("atom_") == std::string::npos) {
    std::fprintf(stderr, "metrics scrape: unexpected response (%zu bytes)\n",
                 response.size());
    return false;
  }
  std::printf("metrics endpoint scrape: OK (%zu bytes of exposition)\n",
              response.size());
  return true;
}

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
  bool tcp = false;
  bool pipelined = false;
  bool net_clients = false;
  uint64_t seed = 42;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--tcp") == 0) {
      tcp = true;
    } else if (std::strcmp(argv[i], "--pipelined") == 0) {
      pipelined = true;
    } else if (std::strcmp(argv[i], "--net-clients") == 0) {
      net_clients = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        std::fprintf(stderr, "--seed must be a number\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      g_metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-port") == 0 && i + 1 < argc) {
      char* end = nullptr;
      g_metrics_port = static_cast<int>(std::strtol(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || g_metrics_port < 0 ||
          g_metrics_port > 65535) {
        std::fprintf(stderr, "--metrics-port must be a port number\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: distributed_nodes [--tcp] [--pipelined] "
                   "[--net-clients] [--seed N] "
                   "[--trace-out FILE] [--metrics-out FILE] "
                   "[--metrics-port P]\n");
      return 2;
    }
  }

  if (!g_trace_out.empty()) {
    // Arm the span collector AND the timing gate before any work runs, so
    // the trace carries phase spans and the histograms carry samples.
    obs::Trace::Enable();
    obs::SetTimingEnabled(true);
  }
  obs::MetricsHttpServer metrics_server;
  if (g_metrics_port >= 0) {
    obs::SetTimingEnabled(true);
    if (!metrics_server.Start(static_cast<uint16_t>(g_metrics_port))) {
      std::fprintf(stderr, "could not bind --metrics-port %d\n",
                   g_metrics_port);
      return 1;
    }
    std::printf("metrics endpoint up on port %u\n", metrics_server.port());
  }

  int rc;
  if (net_clients) {
    rc = RunPipelinedNetClients(argv[0], seed);
  } else if (pipelined) {
    rc = RunPipelined(argv[0], seed);
  } else {
    rc = tcp ? RunTcp(argv[0], seed) : RunLocal();
  }

  if (g_metrics_port >= 0) {
    if (rc == 0 && !ScrapeMetricsEndpoint(metrics_server.port())) {
      rc = 1;
    }
    metrics_server.Stop();
  }
  if (!g_trace_out.empty()) {
    std::string json = obs::Trace::ToJson();
    std::string error;
    if (!obs::ValidateTraceJson(json, &error)) {
      std::fprintf(stderr, "trace JSON failed validation: %s\n",
                   error.c_str());
      rc = rc == 0 ? 1 : rc;
    } else if (!obs::Trace::WriteTo(g_trace_out)) {
      std::fprintf(stderr, "could not write %s\n", g_trace_out.c_str());
      rc = rc == 0 ? 1 : rc;
    } else {
      std::printf("trace: %zu spans -> %s (valid Chrome trace-event "
                  "JSON; load in chrome://tracing or Perfetto)\n",
                  obs::Trace::EventCount(), g_trace_out.c_str());
    }
  }
  if (!g_metrics_out.empty()) {
    // Prefer the merged fleet view a pipelined run collected; fall back
    // to this process's own registry.
    const std::string body = !g_fleet_exposition.empty()
                                 ? g_fleet_exposition
                                 : obs::Registry::Global().ExpositionText();
    if (!WriteTextFile(g_metrics_out, body)) {
      std::fprintf(stderr, "could not write %s\n", g_metrics_out.c_str());
      rc = rc == 0 ? 1 : rc;
    } else {
      std::printf("metrics exposition -> %s (%zu bytes%s)\n",
                  g_metrics_out.c_str(), body.size(),
                  !g_fleet_exposition.empty() ? ", fleet-merged" : "");
    }
  }
  return rc;
}
