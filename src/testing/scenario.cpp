#include "src/testing/scenario.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "src/apps/dialing.h"
#include "src/core/directory.h"
#include "src/core/round.h"
#include "src/net/client_session.h"
#include "src/net/faults.h"
#include "src/net/gateway.h"
#include "src/net/mesh.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/net/round_driver.h"
#include "src/obs/metrics.h"
#include "src/util/hex.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace atom {
namespace {

// Server-side registries accumulated across scenarios (guarded by its
// mutex; CaptureTransportStats merges into it, FleetMetricsExposition
// reads it out).
std::mutex g_fleet_metrics_mu;
obs::MetricsSnapshot g_fleet_metrics;

// ------------------------------------------------------------ fleet spawn

// One atom_server child process (fork/exec), identity key delivered via a
// private 0600 keyfile, fault plan via --fault-spec. Kill/respawn is the
// scenario layer's process-fault injection point.
struct FleetServer {
  pid_t pid = -1;
  int stdin_w = -1;  // closing this tells the child to exit
  uint16_t port = 0;
  std::string keyfile;
  KemKeypair key;
};

bool WriteKeyfile(const std::string& path, const Scalar& sk) {
  unlink(path.c_str());
  int fd = open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0600);
  if (fd < 0) {
    return false;
  }
  auto sk_bytes = sk.ToBytes();
  std::string line =
      HexEncode(BytesView(sk_bytes.data(), sk_bytes.size())) + "\n";
  bool ok = write(fd, line.data(), line.size()) ==
            static_cast<ssize_t>(line.size());
  close(fd);
  return ok;
}

class Fleet {
 public:
  Fleet(std::string binary, Point driver_pk)
      : binary_(std::move(binary)), driver_pk_(driver_pk) {}

  ~Fleet() {
    for (size_t slot = 0; slot < servers_.size(); slot++) {
      Stop(slot);
    }
    for (FleetServer& server : servers_) {
      if (!server.keyfile.empty()) {
        unlink(server.keyfile.c_str());
      }
    }
  }

  // Spawns server `id` with `key` into `slot`, growing the fleet as
  // needed. `fault_spec` is forwarded verbatim (empty = honest server).
  bool Spawn(size_t slot, uint32_t id, const KemKeypair& key,
             const std::string& fault_spec) {
    if (slot >= servers_.size()) {
      servers_.resize(slot + 1);
    }
    FleetServer& server = servers_[slot];
    server.key = key;
    server.keyfile = "/tmp/atom_scenario_key_" +
                     std::to_string(static_cast<long>(getpid())) + "_" +
                     std::to_string(slot) + "_" + std::to_string(spawns_++);
    if (!WriteKeyfile(server.keyfile, key.sk)) {
      return false;
    }
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
      return false;
    }
    std::string id_str = std::to_string(id);
    std::string pk_hex = HexEncode(BytesView(driver_pk_.Encode()));
    pid_t child = fork();
    if (child < 0) {
      return false;
    }
    if (child == 0) {
      dup2(in_pipe[0], STDIN_FILENO);
      dup2(out_pipe[1], STDOUT_FILENO);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
      std::vector<const char*> argv = {
          "atom_server", "--id",        id_str.c_str(),
          "--keyfile",   server.keyfile.c_str(),
          "--driver-pk", pk_hex.c_str()};
      if (!fault_spec.empty()) {
        argv.push_back("--fault-spec");
        argv.push_back(fault_spec.c_str());
      }
      argv.push_back(nullptr);
      execv(binary_.c_str(),
            const_cast<char* const*>(
                reinterpret_cast<const char* const*>(argv.data())));
      _exit(127);
    }
    close(in_pipe[0]);
    close(out_pipe[1]);
    FILE* child_out = fdopen(out_pipe[0], "r");
    char line[128];
    unsigned got_port = 0;
    if (child_out == nullptr ||
        std::fgets(line, sizeof(line), child_out) == nullptr ||
        std::sscanf(line, "ATOM_SERVER_PORT=%u", &got_port) != 1) {
      if (child_out != nullptr) {
        std::fclose(child_out);
      } else {
        close(out_pipe[0]);
      }
      kill(child, SIGKILL);
      waitpid(child, nullptr, 0);
      close(in_pipe[1]);
      return false;
    }
    std::fclose(child_out);
    server.pid = child;
    server.stdin_w = in_pipe[1];
    server.port = static_cast<uint16_t>(got_port);
    return true;
  }

  // SIGKILL: the process fault. The slot can be re-Spawned afterwards.
  void Kill(size_t slot) {
    FleetServer& server = servers_[slot];
    if (server.pid >= 0) {
      kill(server.pid, SIGKILL);
      waitpid(server.pid, nullptr, 0);
      server.pid = -1;
    }
    if (server.stdin_w >= 0) {
      close(server.stdin_w);
      server.stdin_w = -1;
    }
  }

  // Graceful stop (stdin EOF, then the hammer after ~1s).
  void Stop(size_t slot) {
    FleetServer& server = servers_[slot];
    if (server.stdin_w >= 0) {
      close(server.stdin_w);
      server.stdin_w = -1;
    }
    if (server.pid < 0) {
      return;
    }
    for (int i = 0; i < 100; i++) {
      if (waitpid(server.pid, nullptr, WNOHANG) != 0) {
        server.pid = -1;
        return;
      }
      usleep(10'000);
    }
    kill(server.pid, SIGKILL);
    waitpid(server.pid, nullptr, 0);
    server.pid = -1;
  }

  const FleetServer& server(size_t slot) const { return servers_[slot]; }

 private:
  const std::string binary_;
  const Point driver_pk_;
  std::vector<FleetServer> servers_;
  int spawns_ = 0;  // unique keyfile names across respawns
};

// ------------------------------------------------------- report plumbing

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Server ids mentioned as "server <N>" in an abort reason — the abort's
// blame attribution, checked against the scenario's faulted set.
std::vector<uint32_t> MentionedServers(const std::string& reason) {
  std::vector<uint32_t> ids;
  const std::string needle = "server ";
  for (size_t at = reason.find(needle); at != std::string::npos;
       at = reason.find(needle, at + 1)) {
    size_t digits = at + needle.size();
    if (digits < reason.size() &&
        std::isdigit(static_cast<unsigned char>(reason[digits]))) {
      ids.push_back(
          static_cast<uint32_t>(std::strtoul(reason.c_str() + digits,
                                             nullptr, 10)));
    }
  }
  return ids;
}

// ------------------------------------------------------- scenario runner

// The deployments share one harness: twin Rounds from one seed, a
// registered client population on real ClientSessions, a gateway, and an
// atom_server fleet (one process per topology group) under the
// DistributedRoundDriver. A scenario is the parameterization below.
struct Shape {
  std::vector<std::string> fault_specs;        // per group slot
  std::shared_ptr<FaultPlan> gateway_plan;     // churn
  std::set<uint64_t> faulted_rounds;           // round ids that must abort
  bool byte_twin = true;      // compare clean rounds against the ref twin
  bool allow_client_drop = false;  // churn: SubmitAndWait may fail
  bool flash = false;              // concurrent burst population
  bool kill_phase = false;         // partition: SIGKILL + repair epilogue
  uint32_t stalled_server = 0;     // straggler (informational)
};

constexpr uint32_t kKillSlot = 1;  // partition epilogue kills group 1's host

class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ScenarioConfig& config)
      : cfg_(config) {
    report_.scenario = config.name;
    report_.seed = config.seed;
    report_.workload = config.workload;
  }

  ScenarioReport Run() {
    signal(SIGPIPE, SIG_IGN);
    if (cfg_.rounds == 0 || cfg_.users == 0) {
      // Nothing would be checked: no round to compare, or no submission.
      Fail("needs at least one round and one user");
      return report_;
    }
    if (!BuildShape() || !SetUp()) {
      return report_;
    }
    if (shape_.flash) {
      DriveFlashCrowd();
    } else {
      DriveSerial();
    }
    CaptureTransportStats();  // before TearDown stops the mesh
    TearDown();
    if (report_.failure.empty()) {
      report_.ok = true;
    }
    return report_;
  }

 private:
  void Fail(const std::string& what) {
    if (report_.failure.empty()) {
      report_.failure = "scenario " + cfg_.name +
                        " seed=" + std::to_string(cfg_.seed) + ": " + what;
    }
  }

  void Note(const char* fmt, ...) {
    if (!cfg_.verbose) {
      return;
    }
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
    std::fflush(stdout);
  }

  bool BuildShape() {
    const uint64_t seed = cfg_.seed;
    // Scenarios that fault one specific round fault round 2 (needs two
    // rounds minimum so a clean round precedes and, with three, follows).
    fault_round_ = cfg_.rounds >= 2 ? 2 : 1;
    const std::string spec_seed = "seed=" + std::to_string(seed);
    if (cfg_.name == "clean") {
      // No faults: every round must complete and match its twin.
    } else if (cfg_.name == "churn") {
      shape_.gateway_plan = std::make_shared<FaultPlan>();
      shape_.gateway_plan->set_seed(seed);
      shape_.gateway_plan->set_client_disconnect_rate(0.45);
      shape_.allow_client_drop = true;
    } else if (cfg_.name == "flash_crowd") {
      shape_.flash = true;
      shape_.byte_twin = false;
    } else if (cfg_.name == "partition") {
      // Region A = groups {0,1} (hosts 1,2), region B = {2,3} (hosts
      // 3,4): every cross-region link severed for exactly fault_round_,
      // both directions (the same spec rides every server).
      std::string spec = spec_seed;
      const std::string at = "@" + std::to_string(fault_round_) + "-" +
                             std::to_string(fault_round_);
      for (uint32_t a : {1u, 2u}) {
        for (uint32_t b : {3u, 4u}) {
          spec += ";sever=" + std::to_string(a) + "-" + std::to_string(b) +
                  at;
        }
      }
      shape_.fault_specs = {spec, spec, spec, spec};
      shape_.faulted_rounds.insert(fault_round_);
      shape_.kill_phase = true;
    } else if (cfg_.name == "straggler") {
      shape_.fault_specs = {"", spec_seed + ";stall=10", "", ""};
      shape_.stalled_server = 2;
    } else if (cfg_.name == "byzantine") {
      shape_.fault_specs = {
          "", spec_seed + ";tamper=" + std::to_string(fault_round_) + "-" +
                  std::to_string(fault_round_),
          "", ""};
      shape_.faulted_rounds.insert(fault_round_);
    } else {
      Fail("unknown scenario (see ScenarioNames())");
      return false;
    }
    return true;
  }

  bool SetUp() {
    RoundConfig rc;
    rc.params.variant = Variant::kTrap;
    rc.params.num_servers = 6;
    rc.params.num_groups = 4;
    rc.params.group_size = 3;
    rc.params.honest_needed = 1;
    rc.params.iterations = 3;
    rc.params.message_len =
        cfg_.workload == WorkloadKind::kDialing ? kDialMessageLen : 64;
    rc.beacon = ToBytes("scenario-" + cfg_.name);
    rc.workers = 2;
    if (shape_.flash) {
      // A tiny shard ring: with 60 clients bursting into 4 slots per
      // shard, the crowd must hit kBackpressure (bounded queueing), yet
      // a backoff-retrying client still lands within the round.
      rc.stream_queue_capacity = 4;
    }

    // Twin key epochs from one seed: `net_` is fed over the real client
    // path, `ref_` (fault-free twin) the identical accepted submissions
    // in process.
    Rng rng_net(cfg_.seed);
    net_ = std::make_unique<Round>(rc, rng_net);
    if (shape_.byte_twin) {
      Rng rng_ref(cfg_.seed);
      ref_ = std::make_unique<Round>(rc, rng_ref);
    }
    width_ = static_cast<uint32_t>(net_->NumGroups());
    shape_.fault_specs.resize(width_);

    // The client population: a flash crowd is 10x the base population,
    // every client registered with the Directory and synced into the
    // gateway's registry.
    const uint32_t population = shape_.flash ? cfg_.users * 10 : cfg_.users;
    Directory directory(ToBytes("scenario-genesis"));
    key_rng_ = std::make_unique<Rng>(cfg_.seed + 11);
    for (uint32_t u = 0; u < population; u++) {
      uint64_t id = 1000 + u;
      SchnorrKeypair kp = SchnorrKeyGen(*key_rng_);
      if (!directory.RegisterClient(
              MakeClientRegistration(id, kp, *key_rng_))) {
        Fail("client registration failed");
        return false;
      }
      client_ids_.push_back(id);
      client_keys_[id] = KemKeypair{kp.sk, kp.pk};
    }
    registry_.SeedFromDirectory(directory);
    workload_ = std::make_unique<ScenarioWorkload>(
        cfg_.workload, rc.params.message_len, cfg_.seed, client_ids_);

    // The fleet: one atom_server process per topology group, fault specs
    // riding --fault-spec.
    driver_key_ = KemKeyGen(*key_rng_);
    fleet_ = std::make_unique<Fleet>(cfg_.server_binary, driver_key_.pk);
    std::vector<MeshPeer> roster;
    for (uint32_t g = 0; g < width_; g++) {
      hosts_.push_back(g + 1);
      KemKeypair key = KemKeyGen(*key_rng_);
      if (!fleet_->Spawn(g, hosts_[g], key, shape_.fault_specs[g])) {
        Fail("could not spawn atom_server for group " + std::to_string(g));
        return false;
      }
      roster.push_back(MeshPeer{hosts_[g], "127.0.0.1",
                                fleet_->server(g).port, key.pk});
    }
    roster_ = roster;
    mesh_ = std::make_unique<TcpPeerMesh>(TcpPeerMesh::Role::kDriver,
                                          kMeshDriverId, driver_key_);
    mesh_->SetRoster(roster_);
    mesh_->set_dial_attempts(3);
    // Deterministic round ids 1,2,3…: the fleet's fault specs name
    // rounds by id, and a replay must hit the same rounds.
    mesh_->set_next_round_id(1);
    if (!mesh_->ConnectAndPushRoster()) {
      Fail("roster push to the fleet failed");
      return false;
    }
    for (uint32_t g = 0; g < width_; g++) {
      if (!mesh_->SendHostGroup(hosts_[g], g, net_->group(g).dkg())) {
        Fail("host-group push to server " + std::to_string(hosts_[g]) +
             " failed");
        return false;
      }
    }
    Note("fleet up: %u atom_server processes (hosts 1..%u)", width_, width_);

    // Ingress: the gateway fronts net_'s streaming intake; churn's
    // forced disconnects are its fault plan.
    gateway_key_ = KemKeyGen(*key_rng_);
    GatewayConfig gc;
    gc.verify_workers = 2;
    if (shape_.flash) {
      gc.credit_window = 4;
    }
    gateway_ = std::make_unique<ReactorGateway>(net_.get(), &registry_,
                                                gateway_key_, gc);
    if (shape_.gateway_plan != nullptr) {
      gateway_->SetFaultPlan(shape_.gateway_plan);
    }
    if (!gateway_->Listen(0)) {
      Fail("gateway listen failed");
      return false;
    }
    gateway_->Start();
    sessions_.resize(client_ids_.size());
    for (size_t u = 0; u < client_ids_.size(); u++) {
      if (!Reconnect(u)) {
        Fail("client " + std::to_string(client_ids_[u]) +
             " failed to authenticate");
        return false;
      }
    }
    Note("gateway up on port %u; %zu authenticated sessions",
         gateway_->port(), sessions_.size());

    driver_ = std::make_unique<DistributedRoundDriver>(mesh_.get(), hosts_);
    driver_->set_round_timeout(cfg_.round_timeout);
    if (shape_.byte_twin) {
      engine_ = std::make_unique<RoundEngine>(&ThreadPool::Shared());
    }
    sub_rng_ = std::make_unique<Rng>(cfg_.seed + 23);
    take_net_ = std::make_unique<Rng>(cfg_.seed + 31);
    take_ref_ = std::make_unique<Rng>(cfg_.seed + 31);
    return true;
  }

  bool Reconnect(size_t u) {
    sessions_[u] = ClientSession::Connect(
        "127.0.0.1", gateway_->port(), client_ids_[u],
        client_keys_[client_ids_[u]], gateway_key_.pk);
    return sessions_[u] != nullptr;
  }

  // Ships one intake epoch: drains net_, records its blame epoch, hands
  // it to the fleet, and mirrors the accepted submissions into the
  // fault-free twin.
  void ShipRound(std::vector<TrapSubmission> accepted_subs,
                 std::vector<Bytes> accepted_msgs) {
    EngineRound spec = net_->TakeEngineRound({}, *take_net_);
    epochs_.push_back(spec.intake_epoch);
    net_tickets_.push_back(driver_->Submit(std::move(spec)));
    if (shape_.byte_twin) {
      for (const TrapSubmission& sub : accepted_subs) {
        if (!ref_->SubmitTrap(sub)) {
          Fail("fault-free twin rejected an accepted submission");
        }
      }
      ref_tickets_.push_back(
          engine_->Submit(ref_->TakeEngineRound({}, *take_ref_)));
    }
    accepted_.push_back(std::move(accepted_msgs));
  }

  // Serial intake (churn / partition / straggler / byzantine): one
  // SubmitAndWait per client per round, so the accepted set — and under
  // churn, exactly which clients the gateway dropped — is knowable and
  // ordered, keeping even churned rounds byte-comparable to the twin.
  void DriveSerial() {
    const size_t total = cfg_.rounds + (shape_.kill_phase ? 2 : 0);
    const uint64_t kill_round = cfg_.rounds + 1;
    for (size_t r = 0; r < total && report_.failure.empty(); r++) {
      const uint64_t round_id = r + 1;
      if (shape_.kill_phase && round_id == kill_round) {
        // Process fault: SIGKILL group 1's host. The in-flight scenario
        // rounds are drained first so the kill's blast radius is exactly
        // this round — it must abort round-scoped; the repaired fleet
        // must complete the next.
        WaitPending();
        Note("killing server %u (round %llu ships into a dead peer)",
             hosts_[kKillSlot],
             static_cast<unsigned long long>(round_id));
        fleet_->Kill(kKillSlot);
        shape_.faulted_rounds.insert(round_id);
      }
      if (shape_.kill_phase && round_id == kill_round + 1) {
        if (!RepairFleet()) {
          return;
        }
      }
      gateway_->OpenRound(round_id);
      std::vector<TrapSubmission> subs;
      std::vector<Bytes> msgs;
      for (size_t u = 0; u < client_ids_.size(); u++) {
        const uint64_t id = client_ids_[u];
        const uint32_t gid = static_cast<uint32_t>(u) % width_;
        // Built unconditionally so the sub_rng stream — and with it the
        // replay — is independent of which clients the plan drops.
        Bytes msg = workload_->Message(round_id, id);
        TrapSubmission sub = MakeTrapSubmission(
            net_->EntryPk(gid), gid, net_->TrusteePk(), BytesView(msg),
            net_->layout(), *sub_rng_);
        sub.client_id = id;
        if (((sessions_[u] != nullptr && sessions_[u]->alive()) ||
             Reconnect(u)) &&
            sessions_[u]->SubmitAndWait(sub)) {
          subs.push_back(std::move(sub));
          msgs.push_back(std::move(msg));
        } else if (!shape_.allow_client_drop) {
          Fail("round " + std::to_string(round_id) + ": client " +
               std::to_string(id) + " submission not accepted");
        } else if (sessions_[u] != nullptr && !sessions_[u]->alive()) {
          sessions_[u].reset();  // churned out; reconnects next round
        }
      }
      // Churn liveness floor: a round with zero accepted submissions
      // cannot mix. Client 0 redials until one submission lands (its
      // plan stream is seeded, so the replay takes the same retries).
      for (int attempt = 0; shape_.allow_client_drop && subs.empty() &&
                            attempt < 20 && report_.failure.empty();
           attempt++) {
        Bytes msg = workload_->Message(round_id, client_ids_[0]);
        TrapSubmission sub = MakeTrapSubmission(
            net_->EntryPk(0), 0, net_->TrusteePk(), BytesView(msg),
            net_->layout(), *sub_rng_);
        sub.client_id = client_ids_[0];
        if (Reconnect(0) && sessions_[0]->SubmitAndWait(sub)) {
          subs.push_back(std::move(sub));
          msgs.push_back(std::move(msg));
        }
      }
      if (shape_.allow_client_drop && subs.empty()) {
        Fail("round " + std::to_string(round_id) +
             ": gateway dropped every submission attempt");
      }
      gateway_->Cutoff();
      Note("round %llu: %zu/%zu submissions accepted",
           static_cast<unsigned long long>(round_id), subs.size(),
           client_ids_.size());
      ShipRound(std::move(subs), std::move(msgs));
    }
    CheckOutcomes();
  }

  // Flash crowd: the whole 10x population bursts concurrently into a
  // one-slot shard ring behind a 4-credit window; kBackpressure verdicts
  // bound the queue and every client retries until its message lands.
  void DriveFlashCrowd() {
    for (size_t r = 0; r < cfg_.rounds && report_.failure.empty(); r++) {
      const uint64_t round_id = r + 1;
      gateway_->OpenRound(round_id);
      // Messages and submissions prebuilt serially (workload and
      // sub_rng are not thread-safe); threads only submit.
      std::vector<Bytes> msgs;
      std::vector<TrapSubmission> subs;
      for (size_t u = 0; u < client_ids_.size(); u++) {
        const uint32_t gid = static_cast<uint32_t>(u) % width_;
        msgs.push_back(workload_->Message(round_id, client_ids_[u]));
        subs.push_back(MakeTrapSubmission(
            net_->EntryPk(gid), gid, net_->TrusteePk(),
            BytesView(msgs.back()), net_->layout(), *sub_rng_));
        subs.back().client_id = client_ids_[u];
      }
      std::atomic<size_t> backpressure{0};
      std::vector<uint8_t> landed(client_ids_.size(), 0);
      std::mutex fail_mu;
      std::string fail;
      std::vector<std::thread> threads;
      threads.reserve(client_ids_.size());
      for (size_t u = 0; u < client_ids_.size(); u++) {
        threads.emplace_back([&, u] {
          for (int attempt = 0; attempt < 500; attempt++) {
            uint64_t seq = sessions_[u]->Submit(subs[u]);
            std::optional<SubmitStatus> status;
            if (seq != 0) {
              status = sessions_[u]->WaitResult(seq);
            }
            if (status == SubmitStatus::kAccepted) {
              landed[u] = 1;
              return;
            }
            if (status != SubmitStatus::kBackpressure) {
              std::lock_guard<std::mutex> lock(fail_mu);
              if (fail.empty()) {
                fail = "round " + std::to_string(round_id) + ": client " +
                       std::to_string(client_ids_[u]) +
                       " got a non-backpressure failure";
              }
              return;
            }
            backpressure.fetch_add(1, std::memory_order_relaxed);
            // Jittered backoff (by client index, so retries de-herd)
            // capped well under the round timeout.
            usleep(1'000 + 500 * static_cast<useconds_t>(u % 8) +
                   1'000 * static_cast<useconds_t>(std::min(attempt, 20)));
          }
          std::lock_guard<std::mutex> lock(fail_mu);
          if (fail.empty()) {
            fail = "round " + std::to_string(round_id) + ": client " +
                   std::to_string(client_ids_[u]) +
                   " starved behind backpressure";
          }
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
      if (!fail.empty()) {
        Fail(fail);
      }
      gateway_->Cutoff();
      report_.backpressure_events +=
          backpressure.load(std::memory_order_relaxed);
      std::vector<Bytes> accepted_msgs;
      for (size_t u = 0; u < client_ids_.size(); u++) {
        if (landed[u]) {
          accepted_msgs.push_back(std::move(msgs[u]));
        }
      }
      Note("round %llu: %zu/%zu landed, %zu backpressure verdicts",
           static_cast<unsigned long long>(round_id), accepted_msgs.size(),
           client_ids_.size(), backpressure.load());
      ShipRound({}, std::move(accepted_msgs));
    }
    CheckOutcomes();
    if (report_.failure.empty() && report_.backpressure_events == 0) {
      Fail("a 10x flash crowd against a one-slot ring never saw "
           "kBackpressure — the credit window is not bounding intake");
    }
  }

  // The partition epilogue's repair: a replacement process takes over the
  // killed slot under a fresh key; the re-pushed roster and re-shipped
  // group material make the next round completable.
  bool RepairFleet() {
    KemKeypair fresh = KemKeyGen(*key_rng_);
    if (!fleet_->Spawn(kKillSlot, hosts_[kKillSlot], fresh, "")) {
      Fail("could not respawn the killed server");
      return false;
    }
    roster_[kKillSlot] = MeshPeer{hosts_[kKillSlot], "127.0.0.1",
                                  fleet_->server(kKillSlot).port, fresh.pk};
    mesh_->SetRoster(roster_);
    if (!mesh_->ConnectAndPushRoster()) {
      Fail("roster repair push failed");
      return false;
    }
    if (!mesh_->SendHostGroup(hosts_[kKillSlot], kKillSlot,
                              net_->group(kKillSlot).dkg())) {
      Fail("host-group re-push to the replacement failed");
      return false;
    }
    Note("fleet repaired: replacement server %u up", hosts_[kKillSlot]);
    return true;
  }

  // Resolves every submitted-but-unwaited fleet round, in order.
  void WaitPending() {
    while (net_results_.size() < net_tickets_.size()) {
      net_results_.push_back(
          driver_->Wait(net_tickets_[net_results_.size()]));
    }
  }

  // The invariant matrix, per round: abort-or-complete (Wait returning
  // at all is the liveness proof — the driver deadline converts a hang
  // into an abort), blame bounded to faulted parties, clean rounds
  // byte-identical to the twin, and the application workload validating
  // end to end on the accepted set.
  void CheckOutcomes() {
    WaitPending();
    for (size_t r = 0; r < net_tickets_.size(); r++) {
      const uint64_t round_id = r + 1;
      const EngineRoundResult& res = net_results_[r];
      EngineRoundResult ref_res;
      if (shape_.byte_twin) {
        ref_res = engine_->Wait(ref_tickets_[r]);
      }
      RoundOutcome outcome;
      outcome.round_id = round_id;
      outcome.completed = !res.aborted;
      outcome.fault_expected = shape_.faulted_rounds.count(round_id) > 0;
      outcome.abort_reason = res.abort_reason;
      outcome.accepted = accepted_[r].size();
      if (res.aborted) {
        Note("round %llu aborted: %s",
             static_cast<unsigned long long>(round_id),
             res.abort_reason.c_str());
        if (!outcome.fault_expected) {
          Fail("fault-free round " + std::to_string(round_id) +
               " aborted: " + res.abort_reason);
        } else {
          CheckBlame(round_id, res.abort_reason, epochs_[r]);
        }
      } else {
        outcome.plaintexts = res.round.plaintexts.size();
        Note("round %llu completed: %zu plaintexts",
             static_cast<unsigned long long>(round_id),
             res.round.plaintexts.size());
        if (outcome.fault_expected) {
          Fail("round " + std::to_string(round_id) +
               " was faulted but completed instead of aborting");
        } else {
          std::string err = workload_->CheckRound(
              round_id, accepted_[r], res.round.plaintexts);
          if (!err.empty()) {
            Fail("round " + std::to_string(round_id) + " workload: " + err);
          }
          if (shape_.byte_twin) {
            if (ref_res.aborted) {
              Fail("fault-free twin aborted round " +
                   std::to_string(round_id) + ": " + ref_res.abort_reason);
            } else if (res.round.plaintexts != ref_res.round.plaintexts ||
                       res.round.traps_seen != ref_res.round.traps_seen ||
                       res.round.inner_seen != ref_res.round.inner_seen) {
              Fail("round " + std::to_string(round_id) +
                   " diverged from the fault-free twin");
            }
          }
        }
      }
      report_.rounds.push_back(std::move(outcome));
    }
    if (shape_.gateway_plan != nullptr) {
      report_.client_disconnects = shape_.gateway_plan->counts().disconnects;
      if (report_.failure.empty() && report_.client_disconnects == 0) {
        Fail("churn plan never disconnected a client");
      }
    }
  }

  // Blame boundedness for an expected abort: the reason must be scoped
  // to exactly this round, must not be a timeout (faults are detected,
  // not waited out), and must accuse only faulted parties.
  void CheckBlame(uint64_t round_id, const std::string& reason,
                  uint64_t epoch) {
    if (reason.find("round " + std::to_string(round_id)) ==
        std::string::npos) {
      Fail("round " + std::to_string(round_id) +
           " abort reason is not round-scoped: " + reason);
      return;
    }
    if (cfg_.name == "partition" && round_id == fault_round_) {
      // The accusation must name a severed cross-region pair — one host
      // from {1,2} and one from {3,4} — never an intra-region link.
      std::vector<uint32_t> ids = MentionedServers(reason);
      bool in_a = false, in_b = false, stray = false;
      for (uint32_t id : ids) {
        in_a |= (id == 1 || id == 2);
        in_b |= (id == 3 || id == 4);
        stray |= (id < 1 || id > 4);
      }
      if (ids.empty() || stray || !in_a || !in_b) {
        Fail("partition abort does not name a cross-region pair: " +
             reason);
      }
    }
    if (cfg_.name == "byzantine") {
      if (reason.find("timed out") != std::string::npos) {
        Fail("byzantine tamper surfaced as a timeout, not a detection: " +
             reason);
        return;
      }
      // §4.6: a cheating mixer must not frame users. Blame over the
      // aborted epoch (the Round retains its intake) must come back
      // empty for every entry group.
      for (uint32_t gid = 0; gid < width_; gid++) {
        BlameResult blame = net_->BlameEntryGroup(gid, epoch);
        if (!blame.bad_users.empty()) {
          Fail("byzantine abort framed " +
               std::to_string(blame.bad_users.size()) +
               " honest user(s) in group " + std::to_string(gid));
          return;
        }
      }
    }
  }

  void CaptureTransportStats() {
    if (mesh_ == nullptr) {
      return;
    }
    const MeshTransportStats stats = mesh_->Stats();
    report_.transport_bytes_sent = stats.TotalBytes();
    report_.transport_frames_sent = stats.TotalFrames();
    report_.transport_bundles_sent = stats.TotalBundles();
    report_.transport_bundle_fill = stats.BundleFill();
    report_.transport_queue_depth_peak = stats.QueueDepthPeak();
    report_.transport_send_queue_drops = stats.send_queue_drops;
    if (cfg_.collect_fleet_metrics) {
      // Fold every still-reachable server's registry into the process
      // accumulator. Dead/severed hosts (kill/partition scenarios) just
      // time out on the control plane and are skipped.
      std::lock_guard<std::mutex> lock(g_fleet_metrics_mu);
      for (uint32_t host : hosts_) {
        auto remote = mesh_->FetchMetricsSnapshot(host);
        if (remote.has_value()) {
          g_fleet_metrics.MergeFrom(*remote);
        }
      }
    }
  }

  void TearDown() {
    sessions_.clear();
    if (gateway_ != nullptr) {
      gateway_->Stop();
    }
    if (mesh_ != nullptr) {
      mesh_->Stop();  // joins readers before the driver dies
    }
    driver_.reset();
    fleet_.reset();
  }

  const ScenarioConfig cfg_;
  ScenarioReport report_;
  Shape shape_;
  uint64_t fault_round_ = 2;

  std::unique_ptr<Round> net_, ref_;
  uint32_t width_ = 0;
  std::unique_ptr<Rng> key_rng_, sub_rng_, take_net_, take_ref_;
  std::vector<uint64_t> client_ids_;
  std::map<uint64_t, KemKeypair> client_keys_;
  ClientRegistry registry_;
  std::unique_ptr<ScenarioWorkload> workload_;

  KemKeypair driver_key_, gateway_key_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<uint32_t> hosts_;
  std::vector<MeshPeer> roster_;
  std::unique_ptr<TcpPeerMesh> mesh_;
  std::unique_ptr<ReactorGateway> gateway_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;
  std::unique_ptr<DistributedRoundDriver> driver_;
  std::unique_ptr<RoundEngine> engine_;

  std::vector<uint64_t> net_tickets_, ref_tickets_, epochs_;
  std::vector<EngineRoundResult> net_results_;  // waited prefix
  std::vector<std::vector<Bytes>> accepted_;  // per round, message bytes
};

}  // namespace

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> names = {
      "clean",     "churn",     "flash_crowd",
      "partition", "straggler", "byzantine"};
  return names;
}

ScenarioReport RunScenario(const ScenarioConfig& config) {
  ScenarioRunner runner(config);
  return runner.Run();
}

std::string FleetMetricsExposition() {
  obs::MetricsSnapshot merged = obs::Registry::Global().Snapshot();
  {
    std::lock_guard<std::mutex> lock(g_fleet_metrics_mu);
    merged.MergeFrom(g_fleet_metrics);
  }
  return merged.Exposition();
}

std::string ScenarioReport::ToJson() const {
  std::string json = "{";
  json += "\"scenario\":\"" + JsonEscape(scenario) + "\",";
  json += "\"seed\":" + std::to_string(seed) + ",";
  json += "\"workload\":\"" + std::string(WorkloadName(workload)) + "\",";
  json += std::string("\"ok\":") + (ok ? "true" : "false") + ",";
  json += "\"failure\":\"" + JsonEscape(failure) + "\",";
  json += "\"backpressure_events\":" + std::to_string(backpressure_events) +
          ",";
  json += "\"client_disconnects\":" + std::to_string(client_disconnects) +
          ",";
  json += "\"transport\":{";
  json += "\"bytes_sent\":" + std::to_string(transport_bytes_sent) + ",";
  json += "\"frames_sent\":" + std::to_string(transport_frames_sent) + ",";
  json += "\"bundles_sent\":" + std::to_string(transport_bundles_sent) + ",";
  {
    char fill[32];
    std::snprintf(fill, sizeof(fill), "%.2f", transport_bundle_fill);
    json += std::string("\"bundle_fill\":") + fill + ",";
  }
  json += "\"queue_depth_peak\":" +
          std::to_string(transport_queue_depth_peak) + ",";
  json += "\"send_queue_drops\":" +
          std::to_string(transport_send_queue_drops) + "},";
  json += "\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); i++) {
    const RoundOutcome& r = rounds[i];
    if (i > 0) {
      json += ",";
    }
    json += "{\"round_id\":" + std::to_string(r.round_id) + ",";
    json += std::string("\"completed\":") +
            (r.completed ? "true" : "false") + ",";
    json += std::string("\"fault_expected\":") +
            (r.fault_expected ? "true" : "false") + ",";
    json += "\"accepted\":" + std::to_string(r.accepted) + ",";
    json += "\"plaintexts\":" + std::to_string(r.plaintexts) + ",";
    json += "\"abort_reason\":\"" + JsonEscape(r.abort_reason) + "\"}";
  }
  json += "]}";
  return json;
}

}  // namespace atom
