#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench/atom_bench/bench.h"
#include "bench/atom_bench/fleet.h"
#include "bench/atom_bench/probes.h"
#include "src/core/round.h"
#include "src/net/client_session.h"
#include "src/net/mesh.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/net/round_driver.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/parallel.h"

namespace atom_bench {

using namespace atom;
using namespace std::chrono_literals;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "microblog_trap",
       .variant = Variant::kTrap,
       .app = WorkloadKind::kMicroblog,
       .message_len = 160,
       .group_size = 3,
       .iterations = 4,
       .msgs_per_round = 64,
       .warmup_rounds = 2,
       .rounds_per_second = 1.1,
       .wan_delay_ms = 0,
       .open_loop = false},
      {.name = "dialing_nizk",
       .variant = Variant::kNizk,
       .app = WorkloadKind::kDialing,
       .message_len = 80,
       .group_size = 3,
       .iterations = 4,
       .msgs_per_round = 32,
       .warmup_rounds = 2,
       .rounds_per_second = 1.1,
       .wan_delay_ms = 0,
       .open_loop = false},
      {.name = "dialing_wan",
       .variant = Variant::kTrap,
       .app = WorkloadKind::kDialing,
       .message_len = 80,
       .group_size = 3,
       .iterations = 4,
       .msgs_per_round = 16,
       .warmup_rounds = 2,
       .rounds_per_second = 1.8,
       .wan_delay_ms = 40,
       .open_loop = false},
      {.name = "ingress_gateway",
       .variant = Variant::kTrap,
       .app = WorkloadKind::kRaw,
       .message_len = 32,
       .group_size = 2,
       .iterations = 2,
       .msgs_per_round = kGroups * kMaxClientConnections,
       .warmup_rounds = 4,
       .rounds_per_second = 4.0,  // one 250 ms window per round
       .wan_delay_ms = 0,
       .open_loop = true},
  };
  return specs;
}

size_t MaxMeasuredRounds(const WorkloadSpec& w, double seconds) {
  // Closed loops get headroom: a faster commit runs more rounds in the
  // same time, and one more than twice as fast ends early, out of inputs.
  const double headroom = w.open_loop ? 1.0 : 2.0;
  return std::max<size_t>(2, static_cast<size_t>(std::ceil(
                                 seconds * w.rounds_per_second * headroom)));
}

namespace {

// Open loop: a window opens every 250 ms; client c sends its message for
// entry group g at a fixed offset within the first 200 ms of the window.
constexpr auto kWindow = 250ms;
constexpr uint64_t kClientIdBase = 1000;
// Verdict and round deadlines: a hang becomes a reported failure well
// inside the run's 180 s budget.
constexpr auto kVerdictTimeout = 10s;
constexpr auto kRoundTimeout = 60s;

std::chrono::microseconds SendOffset(size_t slot) {
  return std::chrono::microseconds(25'000 + 11'250 * slot);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Independent 64-bit seeds for each use of --seed (splitmix64 finalizer).
enum SeedTag : uint64_t {
  kRoundKeys = 1,  // group DKGs and trustees: every deployment and the twin
  kInfraKeys,      // server, driver, gateway and client identities
  kTake,           // per-round mixing root keys
  kApp,            // message contents
  kProbe,          // per-layer probes
  kPregen,         // submission randomness; kPregen + t for load thread t
};

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + tag * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RoundConfig ConfigFor(const WorkloadSpec& w) {
  RoundConfig rc;
  rc.params.variant = w.variant;
  rc.params.num_servers = kGroups * w.group_size;
  rc.params.num_groups = kGroups;
  rc.params.group_size = w.group_size;
  rc.params.honest_needed = 1;
  rc.params.iterations = w.iterations;
  rc.params.message_len = w.message_len;
  rc.beacon = ToBytes(std::string("atom-bench/") + w.name);
  rc.workers = kHopWorkers;
  return rc;
}

// Slot layout of one round. Closed loop: slot s goes to entry group
// s mod 4 from its own client. Open loop: slot = group * 4 + client, so
// each of the 4 clients sends one message to every entry group.
uint32_t GidOf(const WorkloadSpec& w, size_t slot) {
  return static_cast<uint32_t>(w.open_loop ? slot / kMaxClientConnections
                                           : slot % kGroups);
}

uint64_t ClientIdOf(const WorkloadSpec& w, size_t slot) {
  return w.open_loop ? kClientIdBase + slot % kMaxClientConnections
                     : slot + 1;
}

// Every message of the run and its pre-generated submission; message i
// belongs to round i / per_round.
struct Inputs {
  size_t per_round = 0;
  std::vector<Bytes> messages;
  std::vector<uint32_t> gids;
  std::vector<TrapSubmission> trap;
  std::vector<NizkSubmission> nizk;
};

Inputs MakeInputs(const WorkloadSpec& w, const Round& keys,
                  ScenarioWorkload& app, size_t rounds, uint64_t seed) {
  Inputs in;
  in.per_round = w.msgs_per_round;
  for (size_t r = 0; r < rounds; r++) {
    for (size_t slot = 0; slot < in.per_round; slot++) {
      in.messages.push_back(app.Message(r + 1, slot + 1));
      in.gids.push_back(GidOf(w, slot));
    }
  }
  const size_t total = in.messages.size();
  const bool trap = w.variant == Variant::kTrap;
  std::vector<std::unique_ptr<FixedBaseTable>> entry;
  for (uint32_t g = 0; g < kGroups; g++) {
    entry.push_back(std::make_unique<FixedBaseTable>(keys.EntryPk(g)));
  }
  std::unique_ptr<FixedBaseTable> trustee;
  if (trap) {
    trustee = std::make_unique<FixedBaseTable>(keys.TrusteePk());
    in.trap.resize(total);
  } else {
    in.nizk.resize(total);
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kMaxLoadThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(SubSeed(seed, kPregen + t));
      for (size_t i = t; i < total; i += kMaxLoadThreads) {
        const uint32_t gid = in.gids[i];
        const uint64_t client = ClientIdOf(w, i % in.per_round);
        if (trap) {
          in.trap[i] = MakeTrapSubmission(*entry[gid], gid, *trustee,
                                          BytesView(in.messages[i]),
                                          keys.layout(), rng);
          in.trap[i].client_id = client;
        } else {
          in.nizk[i] = MakeNizkSubmission(*entry[gid], gid,
                                          BytesView(in.messages[i]),
                                          keys.layout(), rng);
          in.nizk[i].client_id = client;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return in;
}

// One deployment: a Round (the key epoch and intake), one atom_server per
// group, the driver mesh and round driver, and on the open loop the
// gateway with its authenticated client sessions.
struct Deployment {
  std::unique_ptr<Round> round;
  std::unique_ptr<ServerFleet> fleet;
  std::vector<uint32_t> hosts;
  std::unique_ptr<TcpPeerMesh> mesh;
  std::unique_ptr<DistributedRoundDriver> driver;
  ClientRegistry registry;
  std::unique_ptr<ClientGateway> gateway;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<double> handshake_ms;
  std::unique_ptr<Rng> take_rng;

  ~Deployment() {
    sessions.clear();
    if (gateway != nullptr) {
      gateway->Stop();
    }
    if (mesh != nullptr) {
      mesh->Stop();  // joins the readers before the driver goes
    }
    driver.reset();
    fleet.reset();
  }
};

std::unique_ptr<Deployment> CreateDeployment(const WorkloadSpec& w,
                                             const RunOptions& o,
                                             bool server_metrics,
                                             std::string* error) {
  auto d = std::make_unique<Deployment>();
  Rng round_rng(SubSeed(o.seed, kRoundKeys));
  d->round = std::make_unique<Round>(ConfigFor(w), round_rng);

  Rng key_rng(SubSeed(o.seed, kInfraKeys));
  const KemKeypair driver_key = KemKeyGen(key_rng);
  FleetOptions fo;
  fo.binary = o.server_binary;
  fo.driver_pk = driver_key.pk;
  fo.nizk = w.variant == Variant::kNizk;
  fo.metrics = server_metrics;
  if (w.wan_delay_ms > 0) {
    // Probability 1: every frame every server sends is delayed.
    fo.fault_spec = "seed=" + std::to_string(o.seed) +
                    ";delay=" + std::to_string(w.wan_delay_ms) + "@1";
  }
  d->fleet = std::make_unique<ServerFleet>(fo);
  std::vector<MeshPeer> roster;
  for (uint32_t g = 0; g < kGroups; g++) {
    const KemKeypair key = KemKeyGen(key_rng);
    d->hosts.push_back(g + 1);
    if (!d->fleet->Spawn(g + 1, key)) {
      *error = "could not start atom_server " + std::to_string(g + 1) +
               " from " + o.server_binary;
      return nullptr;
    }
    roster.push_back(MeshPeer{g + 1, "127.0.0.1", d->fleet->port(g), key.pk});
  }
  d->mesh = std::make_unique<TcpPeerMesh>(TcpPeerMesh::Role::kDriver,
                                          kMeshDriverId, driver_key);
  d->mesh->SetRoster(roster);
  if (w.wan_delay_ms > 0) {
    for (uint32_t host : d->hosts) {
      d->mesh->set_peer_profile(
          host, WanProfile{std::chrono::milliseconds(w.wan_delay_ms), 0});
    }
  }
  if (!d->mesh->ConnectAndPushRoster()) {
    *error = "roster push to the fleet failed";
    return nullptr;
  }
  for (uint32_t g = 0; g < kGroups; g++) {
    if (!d->mesh->SendHostGroup(d->hosts[g], g, d->round->group(g).dkg())) {
      *error = "group material push to server " +
               std::to_string(d->hosts[g]) + " failed";
      return nullptr;
    }
  }
  d->driver = std::make_unique<DistributedRoundDriver>(d->mesh.get(), d->hosts);
  d->driver->set_round_timeout(kRoundTimeout);

  if (w.open_loop) {
    const KemKeypair gateway_key = KemKeyGen(key_rng);
    std::vector<KemKeypair> client_keys;
    for (size_t c = 0; c < kMaxClientConnections; c++) {
      SchnorrKeypair kp = SchnorrKeyGen(key_rng);
      if (!d->registry.Register(
              MakeClientRegistration(kClientIdBase + c, kp, key_rng))) {
        *error = "client registration failed";
        return nullptr;
      }
      client_keys.push_back(KemKeypair{kp.sk, kp.pk});
    }
    d->gateway = MakeClientGateway(GatewayBackend::kReactor, d->round.get(),
                                   &d->registry, gateway_key);
    if (!d->gateway->Listen(0)) {
      *error = "gateway listen failed";
      return nullptr;
    }
    d->gateway->Start();
    for (size_t c = 0; c < kMaxClientConnections; c++) {
      const auto t0 = Clock::now();
      {
        obs::TraceSpan span("handshake", "bench", 0, "client", c);
        d->sessions.push_back(ClientSession::Connect(
            "127.0.0.1", d->gateway->port(), kClientIdBase + c,
            client_keys[c], gateway_key.pk));
      }
      d->handshake_ms.push_back(MsBetween(t0, Clock::now()));
      if (d->sessions.back() == nullptr) {
        *error = "client " + std::to_string(c) + " failed to authenticate";
        return nullptr;
      }
    }
  }
  d->take_rng = std::make_unique<Rng>(SubSeed(o.seed, kTake));
  return d;
}

struct MsgLog {
  Clock::time_point start;    // latency origin: hand-off (closed) or due time
  Clock::time_point handoff;  // admission origin
  Clock::time_point pump_start;  // closed loop: its pump started
  Clock::time_point verdict;
  bool accepted = false;
};

struct RoundLog {
  size_t round = 0;  // input round index
  uint64_t ticket = 0;
  Clock::time_point submit_start, returned;
  double submit_ms = 0;
  double wait_ms = 0;
  EngineRoundResult result;
};

// Everything one phase (warm-up or measured) records, for rounds
// [r0, r1) of the inputs.
struct PhaseLog {
  PhaseLog(size_t first, size_t end, size_t per_round)
      : r0(first), r1(end), msgs((end - first) * per_round) {}

  size_t r0, r1;
  std::vector<MsgLog> msgs;  // message r0 * per_round + i at msgs[i]
  std::vector<RoundLog> rounds;
  std::vector<CiphertextBatch> first_entry;  // round r0's entry batches
  std::vector<double> cutoff_ms;
  double pump_ms = 0;
  size_t pumped = 0;
  size_t load_threads = 0;
  Clock::time_point begin, end;
};

void SubmitRound(Deployment& d, size_t r, PhaseLog& log, RoundLog& rec) {
  EngineRound spec = d.round->TakeEngineRound({}, *d.take_rng);
  if (r == log.r0) {
    log.first_entry = spec.entry;
  }
  rec.round = r;
  rec.submit_start = Clock::now();
  {
    obs::TraceSpan span("submit", "bench", r);
    rec.ticket = d.driver->Submit(std::move(spec));
  }
  rec.submit_ms = MsBetween(rec.submit_start, Clock::now());
}

void WaitRound(Deployment& d, RoundLog& rec) {
  const auto t0 = Clock::now();
  {
    obs::TraceSpan span("wait", "bench", rec.ticket);
    rec.result = d.driver->Wait(rec.ticket);
  }
  rec.returned = Clock::now();
  rec.wait_ms = MsBetween(t0, rec.returned);
}

// Closed loop intake of round r: one load thread per entry group hands
// the group's submissions to its streaming ring one at a time, pumping
// the ring (as its single consumer) for each verdict before the next
// hand-off — a client that waits for its verdict, as SubmitAndWait does.
void IntakeClosedRound(Deployment& d, const Inputs& in, size_t r,
                       PhaseLog& log) {
  obs::TraceSpan span("intake", "bench", r);
  const size_t base = r * in.per_round;
  const size_t log_base = log.r0 * in.per_round;
  std::array<double, kGroups> pump_ms{};
  std::array<size_t, kGroups> pumped{};
  std::vector<std::thread> threads;
  for (uint32_t g = 0; g < kGroups; g++) {
    threads.emplace_back([&, g] {
      for (size_t i = base; i < base + in.per_round; i++) {
        if (in.gids[i] != g) {
          continue;
        }
        StreamedSubmission item;
        if (in.nizk.empty()) {
          item.trap = in.trap[i];
        } else {
          item.nizk = in.nizk[i];
        }
        MsgLog& m = log.msgs[i - log_base];
        m.start = m.handoff = Clock::now();
        if (!d.round->StreamSubmit(std::move(item))) {
          m.verdict = Clock::now();  // refused: stays unaccepted
          continue;
        }
        m.pump_start = Clock::now();
        pumped[g] += d.round->PumpStream(g, 1, [&](uint64_t, bool ok) {
          m.verdict = Clock::now();
          m.accepted = ok;
        });
        pump_ms[g] += MsBetween(m.pump_start, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  log.load_threads = std::max(log.load_threads, threads.size());
  for (uint32_t g = 0; g < kGroups; g++) {
    log.pump_ms += pump_ms[g];
    log.pumped += pumped[g];
  }
}

// Closed loop: kRoundsInFlight rounds overlap on the fleet; round
// r + kRoundsInFlight enters intake when round r returns. No round starts
// after `stop`; the rounds in flight then drain.
void RunClosed(Deployment& d, const Inputs& in, PhaseLog& log,
               Clock::time_point stop) {
  log.rounds.reserve(log.r1 - log.r0);  // launch() must not reallocate
  size_t next = log.r0;
  auto launch = [&] {
    if (next == log.r1 || Clock::now() >= stop) {
      return;
    }
    IntakeClosedRound(d, in, next, log);
    log.rounds.emplace_back();
    SubmitRound(d, next, log, log.rounds.back());
    next++;
  };
  log.begin = Clock::now();
  for (size_t i = 0; i < kRoundsInFlight; i++) {
    launch();
  }
  for (size_t waited = 0; waited < log.rounds.size(); waited++) {
    WaitRound(d, log.rounds[waited]);
    launch();
  }
  log.end = Clock::now();
}

// Open loop: rounds open on a fixed 250 ms schedule whatever the system
// does; each of the 4 client threads sends at its due times. The cutoff
// waits for every verdict of its window, so each window's admitted
// submissions are exactly one round's intake epoch.
void RunOpen(Deployment& d, const Inputs& in, PhaseLog& log,
             std::vector<std::string>* failures) {
  const size_t windows = log.r1 - log.r0;
  log.rounds.resize(windows);
  std::mutex mu;
  std::condition_variable cv;
  size_t opened = 0;     // windows opened (guarded by mu)
  size_t submitted = 0;  // rounds handed to the waiter (guarded by mu)
  bool finished = false;  // guarded by mu
  std::vector<size_t> resolved(windows, 0);  // guarded by mu
  const size_t log_base = log.r0 * in.per_round;
  const Clock::time_point start = Clock::now() + 20ms;
  log.begin = start;

  // Driver side: resolves the submitted rounds in order.
  std::thread waiter([&] {
    for (size_t k = 0;; k++) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > k || finished; });
        if (submitted <= k) {
          return;
        }
      }
      WaitRound(d, log.rounds[k]);
    }
  });

  std::vector<std::thread> clients;
  for (size_t c = 0; c < d.sessions.size(); c++) {
    clients.emplace_back([&, c] {
      ClientSession& session = *d.sessions[c];
      for (size_t k = 0; k < windows; k++) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return opened > k; });
        }
        const Clock::time_point window_start = start + k * kWindow;
        for (uint32_t g = 0; g < kGroups; g++) {
          const size_t slot = g * kMaxClientConnections + c;
          const size_t i = (log.r0 + k) * in.per_round + slot;
          MsgLog& m = log.msgs[i - log_base];
          m.start = window_start + SendOffset(slot);
          std::this_thread::sleep_until(m.start);
          m.handoff = Clock::now();
          const uint64_t seq = session.Submit(in.trap[i]);
          std::optional<SubmitStatus> status;
          if (seq != 0) {
            status = session.WaitResult(seq, kVerdictTimeout);
          }
          m.verdict = Clock::now();
          m.accepted = status == SubmitStatus::kAccepted;
          {
            std::lock_guard<std::mutex> lock(mu);
            resolved[k]++;
          }
          cv.notify_all();
        }
      }
    });
  }
  log.load_threads = clients.size();

  for (size_t k = 0; k < windows; k++) {
    const Clock::time_point window_start = start + k * kWindow;
    std::this_thread::sleep_until(window_start);
    d.gateway->OpenRound(log.r0 + k + 1);
    {
      std::lock_guard<std::mutex> lock(mu);
      opened = k + 1;
    }
    cv.notify_all();
    std::this_thread::sleep_until(window_start + kWindow);
    {
      std::unique_lock<std::mutex> lock(mu);
      if (!cv.wait_for(lock, kVerdictTimeout,
                       [&] { return resolved[k] == in.per_round; })) {
        failures->push_back("window " + std::to_string(log.r0 + k) +
                            ": verdicts still missing at cutoff");
      }
    }
    const auto c0 = Clock::now();
    {
      obs::TraceSpan span("cutoff", "bench", log.r0 + k);
      d.gateway->Cutoff();
    }
    log.cutoff_ms.push_back(MsBetween(c0, Clock::now()));
    SubmitRound(d, log.r0 + k, log, log.rounds[k]);
    {
      std::lock_guard<std::mutex> lock(mu);
      submitted = k + 1;
    }
    cv.notify_all();
  }
  for (std::thread& t : clients) {
    t.join();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  waiter.join();
  log.end = log.begin;
  for (const RoundLog& rec : log.rounds) {
    log.end = std::max(log.end, rec.returned);
  }
}

// Runs rounds [log.r0, log.r1); a closed loop starts none after `stop`.
void RunPhase(const WorkloadSpec& w, Deployment& d, const Inputs& in,
              PhaseLog& log, Clock::time_point stop,
              std::vector<std::string>* failures) {
  if (w.open_loop) {
    RunOpen(d, in, log, failures);
  } else {
    RunClosed(d, in, log, stop);
  }
}

// The correctness oracle for one phase: every round completed, its
// plaintexts are exactly the admitted messages (and pass the application
// check), and a trap round saw one trap per submission. Returns the
// number of messages delivered.
size_t CheckPhase(const WorkloadSpec& w, const Inputs& in,
                  ScenarioWorkload& app, const PhaseLog& log,
                  const char* phase, std::vector<std::string>* failures) {
  size_t delivered = 0;
  size_t refused = 0;
  const size_t log_base = log.r0 * in.per_round;
  for (const RoundLog& rec : log.rounds) {
    const std::string where =
        std::string(phase) + " round " + std::to_string(rec.round);
    std::vector<Bytes> admitted;
    for (size_t slot = 0; slot < in.per_round; slot++) {
      const size_t i = rec.round * in.per_round + slot;
      if (log.msgs[i - log_base].accepted) {
        admitted.push_back(in.messages[i]);
      } else {
        refused++;
      }
    }
    const RoundResult& got = rec.result.round;
    if (rec.result.aborted || got.aborted) {
      failures->push_back(where + " aborted: " + rec.result.abort_reason);
      continue;
    }
    std::string err = app.CheckRound(rec.round + 1, admitted, got.plaintexts);
    if (err.empty() && w.variant == Variant::kTrap &&
        (got.traps_seen != admitted.size() ||
         got.inner_seen != admitted.size())) {
      err = "traps_seen " + std::to_string(got.traps_seen) + " for " +
            std::to_string(admitted.size()) + " submissions";
    }
    if (!err.empty()) {
      failures->push_back(where + ": " + err);
      continue;
    }
    delivered += got.plaintexts.size();
  }
  if (refused > 0) {
    failures->push_back(std::string(phase) + ": " + std::to_string(refused) +
                        " submissions were not admitted");
  }
  return delivered;
}

// Byte-compares the first round of `log` against an in-process
// RoundEngine run of the same submissions on `twin`, a Round built from
// the same seed. The admission order is read off the round's entry
// batches, so the twin's batches match byte for byte.
std::string CheckTwin(const WorkloadSpec& w, Round& twin, const Inputs& in,
                      const PhaseLog& log, uint64_t seed) {
  const RoundLog& first = log.rounds.front();
  if (first.result.aborted) {
    return "first round aborted";
  }
  const bool trap = w.variant == Variant::kTrap;
  const size_t base = log.r0 * in.per_round;
  std::vector<bool> used(in.per_round, false);
  for (uint32_t g = 0; g < kGroups; g++) {
    const CiphertextBatch& batch = log.first_entry[g];
    for (size_t j = 0; j < batch.size(); j += trap ? 2 : 1) {
      size_t found = in.per_round;
      for (size_t slot = 0; slot < in.per_round && found == in.per_round;
           slot++) {
        const size_t i = base + slot;
        if (used[slot] || in.gids[i] != g) {
          continue;
        }
        if (trap ? j + 1 < batch.size() && in.trap[i].first == batch[j] &&
                       in.trap[i].second == batch[j + 1]
                 : in.nizk[i].ciphertext == batch[j]) {
          found = slot;
        }
      }
      if (found == in.per_round) {
        return "group " + std::to_string(g) +
               " entry batch holds a ciphertext no client submitted";
      }
      used[found] = true;
      const bool ok = trap ? twin.SubmitTrap(in.trap[base + found])
                           : twin.SubmitNizk(in.nizk[base + found]);
      if (!ok) {
        return "the twin rejected an admitted submission";
      }
    }
  }
  Rng take(SubSeed(seed, kTake));
  RoundEngine engine(&ThreadPool::Shared());
  const RoundResult want =
      engine.RunToCompletion(twin.TakeEngineRound({}, take)).round;
  const RoundResult& got = first.result.round;
  if (want.aborted) {
    return "the in-process twin aborted: " + want.abort_reason;
  }
  if (got.plaintexts != want.plaintexts || got.traps_seen != want.traps_seen ||
      got.inner_seen != want.inner_seen) {
    return "first round differs from the in-process RoundEngine twin";
  }
  return "";
}

// ------------------------------------------------------- fleet counters

bool InFamily(const std::string& name, const std::string& family) {
  return name.compare(0, family.size(), family) == 0 &&
         (name.size() == family.size() || name[family.size()] == '{');
}

uint64_t CounterSum(const obs::MetricsSnapshot& s, const std::string& family) {
  uint64_t sum = 0;
  for (const auto& [name, v] : s.counters) {
    sum += InFamily(name, family) ? v : 0;
  }
  return sum;
}

int64_t GaugeMax(const obs::MetricsSnapshot& s, const std::string& family) {
  int64_t best = 0;
  for (const auto& [name, v] : s.gauges) {
    best = InFamily(name, family) ? std::max(best, v) : best;
  }
  return best;
}

obs::Pow2Hist HistSum(const obs::MetricsSnapshot& s,
                      const std::string& family) {
  obs::Pow2Hist out;
  for (const auto& [name, h] : s.histograms) {
    if (InFamily(name, family)) {
      out.Merge(h);
    }
  }
  return out;
}

// CPU, peak memory and the metrics registries of the bench process and
// every server at one instant.
struct FleetSample {
  double bench_cpu_s = 0;
  double server_cpu_s = 0;
  double server_rss_mib = 0;
  obs::MetricsSnapshot local;
  std::vector<obs::MetricsSnapshot> servers;
};

// The measured phase on a warm deployment, with fleet samples around it
// and its bounds on the trace clock.
struct PhaseResult {
  std::unique_ptr<PhaseLog> log;
  FleetSample before, after;
  int64_t trace_from_us = 0;
  int64_t trace_to_us = 0;
};

FleetSample Sample(Deployment& d, std::vector<std::string>* failures) {
  FleetSample s;
  s.bench_cpu_s = ProcessCpuSeconds(0);
  for (size_t i = 0; i < d.fleet->size(); i++) {
    s.server_cpu_s += ProcessCpuSeconds(d.fleet->pid(i));
    s.server_rss_mib =
        std::max(s.server_rss_mib, ProcessPeakRssMiB(d.fleet->pid(i)));
  }
  s.local = obs::Registry::Global().Snapshot();
  for (uint32_t host : d.hosts) {
    auto snap = d.mesh->FetchMetricsSnapshot(host);
    if (!snap.has_value()) {
      failures->push_back("no metrics snapshot from server " +
                          std::to_string(host));
      snap.emplace();
    }
    s.servers.push_back(std::move(*snap));
  }
  return s;
}

struct Delta {
  const FleetSample& before;
  const FleetSample& after;

  uint64_t Local(const std::string& family) const {
    return CounterSum(after.local, family) - CounterSum(before.local, family);
  }
  uint64_t Servers(const std::string& family) const {
    uint64_t sum = 0;
    for (size_t i = 0; i < after.servers.size(); i++) {
      sum += CounterSum(after.servers[i], family) -
             CounterSum(before.servers[i], family);
    }
    return sum;
  }
  uint64_t Fleet(const std::string& family) const {
    return Local(family) + Servers(family);
  }
  static obs::Pow2Hist Minus(obs::Pow2Hist a, const obs::Pow2Hist& b) {
    for (size_t i = 0; i < obs::kLatencyBuckets; i++) {
      a.buckets[i] -= b.buckets[i];
    }
    a.sum -= b.sum;
    return a;
  }
  obs::Pow2Hist LocalHist(const std::string& family) const {
    return Minus(HistSum(after.local, family), HistSum(before.local, family));
  }
  obs::Pow2Hist ServerHist(const std::string& family) const {
    obs::Pow2Hist out;
    for (size_t i = 0; i < after.servers.size(); i++) {
      out.Merge(Minus(HistSum(after.servers[i], family),
                      HistSum(before.servers[i], family)));
    }
    return out;
  }
  int64_t ServerGaugeMax(const std::string& family) const {
    int64_t best = 0;
    for (const obs::MetricsSnapshot& s : after.servers) {
      best = std::max(best, GaugeMax(s, family));
    }
    return best;
  }
};

// What one measured phase yields, before it is turned into metrics.
struct Measured {
  size_t attempted = 0;
  size_t delivered = 0;
  double wall_s = 0;
  std::vector<double> latency_ms, admit_ms, late_ms, queue_wait_ms;

  double MsgsPerSecond() const {
    return wall_s > 0 ? static_cast<double>(delivered) / wall_s : 0;
  }
};

Measured Summarize(const Inputs& in, const PhaseLog& log, size_t delivered) {
  Measured m;
  m.attempted = log.rounds.size() * in.per_round;
  m.delivered = delivered;
  m.wall_s = std::chrono::duration<double>(log.end - log.begin).count();
  const size_t log_base = log.r0 * in.per_round;
  for (const RoundLog& rec : log.rounds) {
    if (rec.result.aborted) {
      continue;
    }
    for (size_t slot = 0; slot < in.per_round; slot++) {
      const MsgLog& msg = log.msgs[rec.round * in.per_round + slot - log_base];
      if (!msg.accepted) {
        continue;
      }
      m.latency_ms.push_back(MsBetween(msg.start, rec.returned));
      m.admit_ms.push_back(MsBetween(msg.handoff, msg.verdict));
      m.late_ms.push_back(MsBetween(msg.start, msg.handoff));
      if (msg.pump_start != Clock::time_point{}) {
        m.queue_wait_ms.push_back(MsBetween(msg.handoff, msg.pump_start));
      }
    }
  }
  return m;
}

double DeliveredCount(const Measured& m) {
  return static_cast<double>(std::max<size_t>(m.delivered, 1));
}

// Admission time and CPU per message are per-layer metrics, not these:
// on a shared 4-vCPU host both follow the host's speed (runs of identical
// work differ by 20-50%), so no regression bound could hold them.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const Measured& m, const FleetSample& before,
                             const FleetSample& after) {
  Delta delta{before, after};
  return {
      {"setup_s", Quartiles(setup_s)[1], "s"},
      {"msgs_per_s", m.MsgsPerSecond(), "msg/s"},
      {"latency_p50_ms", Percentile(m.latency_ms, 0.50), "ms"},
      {"latency_p90_ms", Percentile(m.latency_ms, 0.90), "ms"},
      {"wire_bytes_per_msg",
       static_cast<double>(delta.Fleet("atom_mesh_bytes_sent_total")) /
           DeliveredCount(m),
       "B"},
      {"server_rss_mb", after.server_rss_mib, "MiB"},
  };
}

// Durations (ms) of every span named `name` that starts inside the
// measured phase, in a Chrome trace written by obs::Trace, plus the sum of
// its numeric argument `arg` when given.
struct SpanTotals {
  size_t count = 0;
  double dur_ms = 0;
  uint64_t arg_sum = 0;
};

SpanTotals SumSpans(const std::string& json, const PhaseResult& phase,
                    const std::string& name, const std::string& arg = "") {
  SpanTotals out;
  const std::string key = "{\"name\":\"" + name + "\",";
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const size_t end = json.find("}}", at);
    const size_t ts = json.find("\"ts\":", at);
    const size_t dur = json.find("\"dur\":", at);
    if (end == std::string::npos || ts > end || dur > end) {
      continue;
    }
    const long long start_us = std::strtoll(json.c_str() + ts + 5, nullptr, 10);
    if (start_us < phase.trace_from_us || start_us > phase.trace_to_us) {
      continue;
    }
    out.count++;
    out.dur_ms += std::strtod(json.c_str() + dur + 6, nullptr) / 1000.0;
    if (!arg.empty()) {
      const size_t a = json.find("\"" + arg + "\":", at);
      if (a != std::string::npos && a < end) {
        out.arg_sum +=
            std::strtoull(json.c_str() + a + arg.size() + 3, nullptr, 10);
      }
    }
  }
  return out;
}

double PerCount(double total, double count) {
  return count > 0 ? total / count : 0;
}

std::vector<Metric> LayerMetrics(const WorkloadSpec& w, const Deployment& d,
                                 const PhaseResult& phase, const Measured& m,
                                 const std::string& trace_json,
                                 double untraced_msgs_per_s) {
  const PhaseLog& log = *phase.log;
  const FleetSample& after = phase.after;
  Delta delta{phase.before, after};
  const double rounds = static_cast<double>(log.rounds.size());
  std::vector<double> submit_ms, wait_ms;
  double round_time_s = 0;
  for (const RoundLog& rec : log.rounds) {
    submit_ms.push_back(rec.submit_ms);
    wait_ms.push_back(rec.wait_ms);
    round_time_s +=
        std::chrono::duration<double>(rec.returned - rec.submit_start).count();
  }
  // Intake: the closed loop pumps the rings itself; behind the gateway the
  // pumps run inside the program, seen through its "verify" spans.
  double pump_ms_per_sub = PerCount(log.pump_ms, static_cast<double>(log.pumped));
  double queue_wait_ms = Mean(m.queue_wait_ms);
  if (w.open_loop) {
    const SpanTotals verify = SumSpans(trace_json, phase, "verify", "items");
    pump_ms_per_sub =
        PerCount(verify.dur_ms, static_cast<double>(verify.arg_sum));
    queue_wait_ms = std::max(
        0.0, Mean(m.admit_ms) -
                 PerCount(verify.dur_ms, static_cast<double>(verify.count)));
  }
  const SpanTotals finalize = SumSpans(trace_json, phase, "finalize");
  const obs::Pow2Hist node_dwell = delta.ServerHist("atom_pool_task_dwell_us");
  const obs::Pow2Hist bench_dwell = delta.LocalHist("atom_pool_task_dwell_us");
  const obs::Pow2Hist epoll = delta.LocalHist("atom_gateway_epoll_wait_us");
  auto verdicts = [&](const char* status) {
    return static_cast<double>(delta.Local(
        std::string("atom_gateway_verdicts_total{status=\"") + status + "\"}"));
  };
  const double bundles =
      static_cast<double>(delta.Fleet("atom_mesh_bundles_sent_total"));
  return {
      {"core.intake.admit_p50_ms", Percentile(m.admit_ms, 0.50), "ms"},
      {"core.intake.admit_p99_ms", Percentile(m.admit_ms, 0.99), "ms"},
      {"core.intake.queue_wait_ms", queue_wait_ms, "ms"},
      {"core.intake.pump_ms_per_sub", pump_ms_per_sub, "ms"},
      {"core.intake.accept_ratio",
       PerCount(static_cast<double>(m.admit_ms.size()),
                static_cast<double>(m.attempted)),
       "ratio"},
      {"net.driver.submit_ms", Mean(submit_ms), "ms"},
      {"net.driver.wait_blocked_ms", Mean(wait_ms), "ms"},
      {"net.driver.finalize_ms",
       PerCount(finalize.dur_ms, static_cast<double>(finalize.count)), "ms"},
      {"net.driver.inflight_mean", PerCount(round_time_s, m.wall_s), "rounds"},
      {"net.mesh.frames_per_round",
       PerCount(static_cast<double>(delta.Fleet("atom_mesh_frames_sent_total")),
                rounds),
       "frames"},
      {"net.mesh.bundle_fill",
       PerCount(
           static_cast<double>(delta.Fleet("atom_mesh_envelopes_bundled_total")),
           bundles),
       "envelopes"},
      {"net.mesh.queue_peak_bytes",
       static_cast<double>(
           std::max(GaugeMax(after.local, "atom_mesh_send_queue_depth_peak_bytes"),
                    delta.ServerGaugeMax("atom_mesh_send_queue_depth_peak_bytes"))),
       "B"},
      {"net.mesh.drops",
       static_cast<double>(delta.Fleet("atom_mesh_send_queue_drops_total")),
       "count"},
      {"net.node.pool_tasks_per_round",
       PerCount(static_cast<double>(delta.Servers("atom_pool_tasks_total")),
                rounds),
       "tasks"},
      {"net.node.pool_dwell_p50_us", node_dwell.Percentile(0.50), "us"},
      {"net.node.pool_dwell_p99_us", node_dwell.Percentile(0.99), "us"},
      {"net.node.queue_depth_peak",
       static_cast<double>(delta.ServerGaugeMax("atom_pool_queue_depth_peak")),
       "tasks"},
      {"net.node.cpu_ms_per_round",
       PerCount((after.server_cpu_s - phase.before.server_cpu_s) * 1000.0,
                rounds),
       "ms"},
      {"net.gateway.handshake_ms", Mean(d.handshake_ms), "ms"},
      {"net.gateway.cutoff_ms", Mean(log.cutoff_ms), "ms"},
      {"net.gateway.verdicts_accepted", verdicts("accepted"), "count"},
      {"net.gateway.verdicts_rejected", verdicts("rejected"), "count"},
      {"net.gateway.verdicts_closed", verdicts("closed"), "count"},
      {"net.gateway.verdicts_backpressure", verdicts("backpressure"), "count"},
      {"net.gateway.epoll_wait_p50_us", epoll.Percentile(0.50), "us"},
      {"util.pool.dwell_p50_us", bench_dwell.Percentile(0.50), "us"},
      {"util.pool.dwell_p99_us", bench_dwell.Percentile(0.99), "us"},
      {"util.pool.queue_depth_peak",
       static_cast<double>(GaugeMax(after.local, "atom_pool_queue_depth_peak")),
       "tasks"},
      {"loadgen.late_p99_ms", Percentile(m.late_ms, 0.99), "ms"},
      {"loadgen.threads", static_cast<double>(log.load_threads), "count"},
      {"loadgen.connections", static_cast<double>(d.sessions.size()), "count"},
      {"trace.overhead_frac",
       untraced_msgs_per_s > 0
           ? 1.0 - m.MsgsPerSecond() / untraced_msgs_per_s
           : 0,
       "ratio"},
  };
}

// One round's entry batches and trap commitments, in admission order.
ProbeInputs MakeProbeInputs(const WorkloadSpec& w, Round& keys,
                            const Inputs& in, uint64_t seed) {
  ProbeInputs p;
  p.keys = &keys;
  p.entry.resize(kGroups);
  p.commitments.resize(kGroups);
  p.span = in.per_round / kGroups;
  p.seed = SubSeed(seed, kProbe);
  for (size_t i = 0; i < in.per_round; i++) {
    const uint32_t g = in.gids[i];
    if (w.variant == Variant::kTrap) {
      p.entry[g].push_back(in.trap[i].first);
      p.entry[g].push_back(in.trap[i].second);
      p.commitments[g].push_back(in.trap[i].trap_commitment);
    } else {
      p.entry[g].push_back(in.nizk[i].ciphertext);
    }
  }
  return p;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-38s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// A deployment brought up and warmed: `setup_s` runs from the Round's
// construction until the warm-up rounds have returned.
struct Warm {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<PhaseLog> warmup;
  double setup_s = 0;
};

Warm SetUp(const WorkloadSpec& w, const RunOptions& o, const Inputs& in,
           bool server_metrics, std::vector<std::string>* failures) {
  Warm out;
  obs::TraceSpan span("setup", "bench");
  const auto t0 = Clock::now();
  std::string error;
  out.d = CreateDeployment(w, o, server_metrics, &error);
  if (out.d == nullptr) {
    failures->push_back("set-up: " + error);
    return out;
  }
  out.warmup = std::make_unique<PhaseLog>(0, w.warmup_rounds, in.per_round);
  RunPhase(w, *out.d, in, *out.warmup, Clock::time_point::max(), failures);
  out.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

PhaseResult Measure(const WorkloadSpec& w, Deployment& d, const Inputs& in,
                    double seconds, std::vector<std::string>* failures) {
  PhaseResult out;
  const size_t first = w.warmup_rounds;
  const size_t end = in.messages.size() / in.per_round;
  out.log = std::make_unique<PhaseLog>(first, end, in.per_round);
  out.before = Sample(d, failures);
  out.trace_from_us = obs::Trace::NowUs();
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  RunPhase(w, d, in, *out.log, stop, failures);
  out.trace_to_us = obs::Trace::NowUs();
  out.after = Sample(d, failures);
  return out;
}

}  // namespace

RunOutcome RunWorkload(const WorkloadSpec& w, const RunOptions& o) {
  std::signal(SIGPIPE, SIG_IGN);
  RunOutcome out;
  std::vector<std::string> failures;  // every check that did not hold
  const size_t max_measured = MaxMeasuredRounds(w, o.seconds);
  const size_t rounds = w.warmup_rounds + max_measured;

  std::printf("\n== %s: %zu groups x k=%zu x T=%zu, %s, %zu B messages, "
              "%zu msgs/%s, seed %llu\n",
              w.name, kGroups, w.group_size, w.iterations,
              w.variant == Variant::kTrap ? "trap" : "nizk", w.message_len,
              w.msgs_per_round, w.open_loop ? "250 ms window" : "round",
              static_cast<unsigned long long>(o.seed));
  // The twin is built from the same seed as every deployment's Round; its
  // keys also serve submission pre-generation.
  Rng twin_rng(SubSeed(o.seed, kRoundKeys));
  Round twin(ConfigFor(w), twin_rng);
  std::vector<uint64_t> app_ids;
  for (size_t slot = 0; slot < w.msgs_per_round; slot++) {
    app_ids.push_back(slot + 1);
  }
  ScenarioWorkload app(w.app, w.message_len, SubSeed(o.seed, kApp), app_ids);
  const auto pregen_t0 = Clock::now();
  const Inputs in = MakeInputs(w, twin, app, rounds, o.seed);
  std::printf("  pre-generated %zu submissions on %zu threads in %.2f s "
              "(untimed): %zu warm-up rounds, up to %zu measured\n",
              in.messages.size(), kMaxLoadThreads,
              std::chrono::duration<double>(Clock::now() - pregen_t0).count(),
              w.warmup_rounds, max_measured);
  out.load_threads = kMaxLoadThreads;  // the pre-generation threads

  auto finish = [&](std::vector<Metric> metrics, size_t attempted,
                    size_t delivered) {
    out.result.attempted = std::max<size_t>(attempted, 1);
    out.result.failed = out.result.attempted - std::min(delivered, attempted);
    out.result.correct = failures.empty() && out.result.failed == 0;
    out.result.metrics = std::move(metrics);
    for (const std::string& f : failures) {
      std::fprintf(stderr, "FAIL %s: %s\n", w.name, f.c_str());
    }
    return out;
  };
  // What a run that fails before measuring reports as attempted.
  const size_t nominal = static_cast<size_t>(
      std::ceil(o.seconds * w.rounds_per_second)) * in.per_round;

  if (!o.trace) {
    std::vector<double> setup_s;
    Warm warm;
    for (size_t s = 0; s < std::max<size_t>(o.setups, 1); s++) {
      warm = Warm{};  // tears the previous deployment down, untimed
      warm = SetUp(w, o, in, false, &failures);
      if (warm.d == nullptr) {
        return finish({}, nominal, 0);
      }
      setup_s.push_back(warm.setup_s);
      CheckPhase(w, in, app, *warm.warmup, "warm-up", &failures);
    }
    PhaseResult phase = Measure(w, *warm.d, in, o.seconds, &failures);
    out.client_connections = warm.d->sessions.size();
    out.load_threads = std::max(out.load_threads, phase.log->load_threads);
    warm.d.reset();
    const size_t delivered =
        CheckPhase(w, in, app, *phase.log, "measured", &failures);
    const std::string twin_err = CheckTwin(w, twin, in, *warm.warmup, o.seed);
    if (!twin_err.empty()) {
      failures.push_back(twin_err);
    }
    const Measured m = Summarize(in, *phase.log, delivered);
    std::vector<Metric> metrics =
        EndToEnd(setup_s, m, phase.before, phase.after);
    const auto q = Quartiles(setup_s);
    const double cpu_s = (phase.after.bench_cpu_s - phase.before.bench_cpu_s) +
                         (phase.after.server_cpu_s - phase.before.server_cpu_s);
    std::printf("  %zu set-ups: %.3f / %.3f / %.3f s (quartiles); measured "
                "%.2f s, %zu latency samples\n",
                setup_s.size(), q[0], q[1], q[2], m.wall_s,
                m.latency_ms.size());
    std::printf("  host-dependent, not gated: CPU %.2f ms/msg (servers "
                "%.2f s), admission p50 %.2f ms, p99 %.2f ms\n",
                cpu_s * 1000.0 / DeliveredCount(m),
                phase.after.server_cpu_s - phase.before.server_cpu_s,
                Percentile(m.admit_ms, 0.5), Percentile(m.admit_ms, 0.99));
    PrintMetrics("end-to-end:", metrics);
    return finish(std::move(metrics), m.attempted, delivered);
  }

  // Traced run: the same measured phase twice on identical inputs, first
  // on an untraced fleet (the overhead reference), then with tracing and
  // timing on in the bench and on every server.
  double untraced_mps = 0;
  {
    Warm warm = SetUp(w, o, in, false, &failures);
    if (warm.d == nullptr) {
      return finish({}, nominal, 0);
    }
    CheckPhase(w, in, app, *warm.warmup, "warm-up", &failures);
    PhaseResult phase = Measure(w, *warm.d, in, o.seconds, &failures);
    warm.d.reset();
    const size_t delivered =
        CheckPhase(w, in, app, *phase.log, "untraced", &failures);
    untraced_mps = Summarize(in, *phase.log, delivered).MsgsPerSecond();
    const std::string twin_err = CheckTwin(w, twin, in, *warm.warmup, o.seed);
    if (!twin_err.empty()) {
      failures.push_back(twin_err);
    }
  }
  obs::Trace::Clear();
  obs::Trace::Enable();
  obs::SetTimingEnabled(true);
  Warm warm = SetUp(w, o, in, true, &failures);
  if (warm.d == nullptr) {
    obs::Trace::Disable();
    obs::SetTimingEnabled(false);
    return finish({}, nominal, 0);
  }
  CheckPhase(w, in, app, *warm.warmup, "warm-up", &failures);
  PhaseResult phase = Measure(w, *warm.d, in, o.seconds, &failures);
  out.client_connections = warm.d->sessions.size();
  out.load_threads = std::max(out.load_threads, phase.log->load_threads);
  const size_t delivered =
      CheckPhase(w, in, app, *phase.log, "traced", &failures);
  const Measured m = Summarize(in, *phase.log, delivered);

  obs::MetricsSnapshot fleet = phase.after.local;
  for (const obs::MetricsSnapshot& s : phase.after.servers) {
    fleet.MergeFrom(s);
  }
  std::vector<Metric> layers =
      LayerMetrics(w, *warm.d, phase, m, obs::Trace::ToJson(), untraced_mps);
  warm.d.reset();
  std::vector<Metric> metrics =
      ProbeLayers(w, MakeProbeInputs(w, twin, in, o.seed), &failures);
  metrics.insert(metrics.end(), layers.begin(), layers.end());
  obs::Trace::Disable();
  obs::SetTimingEnabled(false);

  // The written trace also holds the set-up and probe spans.
  const std::string trace_json = obs::Trace::ToJson();
  std::string trace_err;
  if (!obs::ValidateTraceJson(trace_json, &trace_err)) {
    failures.push_back("trace JSON invalid: " + trace_err);
  }
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string stem = o.out_dir + "/" + w.name + "-seed" +
                           std::to_string(o.seed);
  if (!WriteFile(stem + ".trace.json", trace_json) ||
      !WriteFile(stem + ".prom", fleet.Exposition())) {
    failures.push_back("could not write " + stem + ".{trace.json,prom}");
  } else {
    std::printf("  wrote %s.trace.json (%zu spans) and %s.prom\n",
                stem.c_str(), obs::Trace::EventCount(), stem.c_str());
  }
  PrintMetrics("per-layer:", metrics);
  return finish(std::move(metrics), m.attempted, delivered);
}

}  // namespace atom_bench
