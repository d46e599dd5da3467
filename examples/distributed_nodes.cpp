// Distributed deployment shape, end to end over real processes and
// sockets:
//
//   ./build/examples/distributed_nodes [--seed N] [--trace-out FILE]
//       [--metrics-out FILE] [--metrics-port P]
//
// Users register Schnorr identities with the Directory; the reactor
// gateway fronts the round's streaming intake, and every submission
// arrives over an authenticated TCP ClientSession. One ./atom_server
// process per topology group (identity keys loaded via --keyfile) mixes
// the rounds: the driver ships each group's DKG material over the control
// plane and pipelines three rounds through the DistributedRoundDriver, so
// round r+1's intake fills through the gateway while round r mixes on the
// fleet. Every RoundResult is byte-compared against a twin round whose
// identical submissions were made in process. Exits nonzero on any
// divergence — CI runs this as the deployed-shape smoke test.
//
// --trace-out writes a Chrome trace of the round phases, --metrics-port
// serves the driver's registry over HTTP (self-scraped before exit), and
// --metrics-out writes the fleet-merged Prometheus exposition.
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
#include "src/core/round.h"
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
// --metrics-out / --metrics-port export the metrics plane. The run fills
// g_fleet_exposition with the MERGED fleet view (driver
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

// Spawns one atom_server. The identity key travels via a private temp file
// and --keyfile (the keystore path a real deployment uses).
bool SpawnServer(const std::string& binary, uint32_t id, const Scalar& sk,
                 const Point& driver_pk, ServerHandle* out) {
  int in_pipe[2], out_pipe[2];
  if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
    return false;
  }
  std::string id_str = std::to_string(id);
  auto sk_bytes = sk.ToBytes();
  std::string sk_hex = HexEncode(BytesView(sk_bytes.data(), sk_bytes.size()));
  std::string pk_hex = HexEncode(BytesView(driver_pk.Encode()));
  std::string keyfile = "/tmp/atom_server_key_" +
                        std::to_string(static_cast<long>(getpid())) + "_" +
                        id_str;
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
  std::string key_line = sk_hex + "\n";
  if (write(fd, key_line.data(), key_line.size()) !=
      static_cast<ssize_t>(key_line.size())) {
    close(fd);
    return false;
  }
  close(fd);
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
    execl(binary.c_str(), "atom_server", "--id", id_str.c_str(),
          "--keyfile", keyfile.c_str(), "--driver-pk", pk_hex.c_str(),
          static_cast<char*>(nullptr));
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

// ---------------------------------------------- the deployed shape

// Registered clients -> ReactorGateway -> streaming intake ->
// DistributedRoundDriver -> atom_server fleet, with a twin round fed the
// identical submissions in process as the oracle.
int RunDeployment(const char* argv0, uint64_t seed) {
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
                     &servers[g])) {
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
  uint64_t seed = 42;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
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
                   "usage: distributed_nodes [--seed N] "
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

  int rc = RunDeployment(argv[0], seed);

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
    // Prefer the merged fleet view the run collected; fall back to this
    // process's own registry.
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
