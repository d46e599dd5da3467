// Tests for the epoll reactor ingress tier (src/net/reactor.h): a seeded
// round driven through TCP ClientSessions is byte-identical to its
// in-process twin, slowloris-style stalled handshakes and idle sessions
// are reaped by deadline, FaultPlan's gateway churn injection point works
// mid-stream, Stop() under connect/submit load is deterministic, and a
// GatewayFleet shards admission per entry group with FleetClient routing
// each message to its group's gateway. Verdict semantics and the session
// lifecycle are covered by net_test's Ingress*/GatewayLifecycle suites,
// which run against the same gateway.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "src/core/directory.h"
#include "src/core/round.h"
#include "src/core/wire.h"
#include "src/net/client_session.h"
#include "src/net/reactor.h"
#include "src/net/registry.h"
#include "src/util/rng.h"

namespace atom {
namespace {

using namespace std::chrono_literals;

bool WaitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout = 5s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

// Twin-buildable ingress deployment: same shape as net_test's
// IngressFixture, with its own keys and beacon.
struct ReactorFixture {
  RoundConfig config;
  Rng round_rng;
  std::unique_ptr<Round> round;
  Directory directory{ToBytes("reactor-genesis")};
  ClientRegistry registry;
  Rng key_rng{uint64_t{0x4eac7}};
  KemKeypair gateway_key;
  std::map<uint64_t, KemKeypair> client_keys;
  std::unique_ptr<ReactorGateway> gateway;

  explicit ReactorFixture(Variant variant, uint64_t seed = 0x4eac7)
      : round_rng(seed) {
    config.params.variant = variant;
    config.params.num_servers = 4;
    config.params.num_groups = 2;
    config.params.group_size = 2;
    config.params.honest_needed = 1;
    config.params.iterations = 2;
    config.params.message_len = 32;
    config.beacon = ToBytes("reactor-epoch");
    config.workers = 1;
    round = std::make_unique<Round>(config, round_rng);
    gateway_key = KemKeyGen(key_rng);
  }

  ~ReactorFixture() {
    if (gateway != nullptr) {
      gateway->Stop();
    }
  }

  void AddClient(uint64_t id) {
    SchnorrKeypair kp = SchnorrKeyGen(key_rng);
    client_keys[id] = KemKeypair{kp.sk, kp.pk};
    EXPECT_TRUE(
        directory.RegisterClient(MakeClientRegistration(id, kp, key_rng)));
  }

  bool StartGateway(GatewayConfig cfg = {},
                    std::shared_ptr<FaultPlan> plan = nullptr) {
    registry.SeedFromDirectory(directory);
    gateway = std::make_unique<ReactorGateway>(round.get(), &registry,
                                               gateway_key, cfg);
    if (plan != nullptr) {
      gateway->SetFaultPlan(std::move(plan));
    }
    if (!gateway->Listen(0)) {
      return false;
    }
    gateway->Start();
    return true;
  }

  std::unique_ptr<ClientSession> Connect(uint64_t id) {
    return ClientSession::Connect("127.0.0.1", gateway->port(), id,
                                  client_keys[id], gateway_key.pk);
  }

  TrapSubmission MakeTrap(uint64_t client_id, uint32_t gid, Rng& rng,
                          const std::string& text) {
    auto sub = MakeTrapSubmission(round->EntryPk(gid), gid,
                                  round->TrusteePk(), BytesView(ToBytes(text)),
                                  round->layout(), rng);
    sub.client_id = client_id;
    return sub;
  }
};

RoundResult RunRoundInEngine(Round& round, uint64_t take_seed) {
  Rng take_rng(take_seed);
  RoundEngine engine(&ThreadPool::Shared());
  return engine.RunToCompletion(round.TakeEngineRound({}, take_rng)).round;
}

TEST(ReactorEquivalence, TrapRoundViaTcpMatchesInProcess) {
  // Two rounds built from one seed are key-identical; the same submission
  // bytes entered through the reactor gateway and via in-process
  // SubmitTrap, in the same per-shard order, must produce byte-identical
  // results — the reactor changed the socket engine, not the protocol.
  constexpr uint64_t kSeed = 0x8ab5eed;
  constexpr uint64_t kTakeSeed = 0x84e;
  ReactorFixture net(Variant::kTrap, kSeed);
  ReactorFixture local(Variant::kTrap, kSeed);

  Rng sub_rng(uint64_t{0x7ab1e});
  std::vector<TrapSubmission> subs;
  for (uint64_t u = 0; u < 4; u++) {
    subs.push_back(net.MakeTrap(3000 + u, static_cast<uint32_t>(u % 2),
                                sub_rng, "reactor msg " + std::to_string(u)));
  }

  for (const auto& sub : subs) {
    ASSERT_TRUE(local.round->SubmitTrap(sub));
  }
  RoundResult want = RunRoundInEngine(*local.round, kTakeSeed);
  ASSERT_FALSE(want.aborted) << want.abort_reason;

  for (uint64_t u = 0; u < 4; u++) {
    net.AddClient(3000 + u);
  }
  ASSERT_TRUE(net.StartGateway());
  net.gateway->OpenRound(1);
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (uint64_t u = 0; u < 4; u++) {
    auto session = net.Connect(3000 + u);
    ASSERT_NE(session, nullptr) << "client " << u << " failed to connect";
    EXPECT_EQ(session->WaitRoundOpen(), 1u);
    ASSERT_TRUE(session->SubmitAndWait(subs[u]));
    sessions.push_back(std::move(session));
  }
  EXPECT_EQ(net.gateway->connection_count(), 4u);
  net.gateway->Cutoff();
  EXPECT_EQ(net.gateway->accepted_count(), 4u);
  RoundResult got = RunRoundInEngine(*net.round, kTakeSeed);
  ASSERT_FALSE(got.aborted) << got.abort_reason;
  EXPECT_EQ(got.plaintexts, want.plaintexts)
      << "reactor-ingress round diverged from in-process submission";
  EXPECT_EQ(got.traps_seen, want.traps_seen);
  EXPECT_EQ(got.inner_seen, want.inner_seen);
}

TEST(ReactorHardening, StalledHandshakeReaped) {
  // Slowloris: a dialer that connects and then trickles (or stops) must
  // not hold a connection slot past the handshake deadline.
  ReactorFixture fx(Variant::kTrap);
  GatewayConfig cfg;
  cfg.handshake_deadline_ms = 300;
  ASSERT_TRUE(fx.StartGateway(cfg));

  // One socket that says nothing, one that sends a partial frame header
  // and stalls mid-handshake.
  auto silent = TcpSocket::Dial("127.0.0.1", fx.gateway->port());
  ASSERT_TRUE(silent.has_value());
  auto trickle = TcpSocket::Dial("127.0.0.1", fx.gateway->port());
  ASSERT_TRUE(trickle.has_value());
  uint8_t partial[4] = {16, 0, 0, 0};  // declares 16 bytes, never sends them
  ASSERT_TRUE(trickle->SendAll(BytesView(partial, sizeof(partial))));

  // The gateway reaps both: the peer observes EOF, not a hang.
  silent->SetRecvTimeout(5000);
  trickle->SetRecvTimeout(5000);
  uint8_t byte;
  EXPECT_EQ(recv(silent->fd(), &byte, 1, 0), 0)
      << "silent dialer survived the handshake deadline";
  EXPECT_EQ(recv(trickle->fd(), &byte, 1, 0), 0)
      << "stalled mid-handshake dialer survived the deadline";
  EXPECT_EQ(fx.gateway->connection_count(), 0u);

  // The reaper does not throw out honest latecomers: a real client still
  // connects fine afterwards.
  fx.AddClient(720);
  fx.registry.SeedFromDirectory(fx.directory);
  auto session = fx.Connect(720);
  EXPECT_NE(session, nullptr);
}

TEST(ReactorHardening, IdleSessionReaped) {
  ReactorFixture fx(Variant::kTrap);
  fx.AddClient(730);
  GatewayConfig cfg;
  cfg.idle_timeout_ms = 300;
  ASSERT_TRUE(fx.StartGateway(cfg));

  auto session = fx.Connect(730);
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(WaitUntil([&] { return fx.gateway->connection_count() == 0; }))
      << "idle session survived the idle timeout";
  EXPECT_TRUE(WaitUntil([&] { return !session->alive(); }))
      << "client never observed the reap";
}

TEST(ReactorHardening, FaultPlanDisconnectsMidStream) {
  // The scenario harness's gateway-churn injection point: with
  // disconnect_rate = 1, the first kSubmit frame read kills the link
  // before its submission reaches the intake.
  ReactorFixture fx(Variant::kTrap);
  fx.AddClient(740);
  auto plan = std::make_shared<FaultPlan>(uint64_t{0x5eed});
  plan->set_client_disconnect_rate(1.0);
  ASSERT_TRUE(fx.StartGateway({}, plan));
  fx.gateway->OpenRound(1);

  auto session = fx.Connect(740);
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->WaitRoundOpen(), 1u);
  Rng rng(uint64_t{0xd15c});
  uint64_t seq = session->Submit(fx.MakeTrap(740, 0, rng, "doomed"));
  ASSERT_NE(seq, 0u);
  EXPECT_TRUE(WaitUntil([&] { return !session->alive(); }))
      << "churn plan never disconnected the client";
  EXPECT_EQ(plan->counts().disconnects, 1u);
  fx.gateway->Cutoff();
  EXPECT_EQ(fx.gateway->accepted_count(), 0u)
      << "a discarded submission reached the intake";
}

TEST(ReactorLifecycle, StartStopUnderLoadIsDeterministic) {
  // Stop() while clients are mid-handshake and mid-submit must close
  // every connection and join every loop — no wedge, no leak, repeatable.
  ReactorFixture fx(Variant::kTrap);
  for (uint64_t u = 0; u < 2; u++) {
    fx.AddClient(800 + u);
  }
  Rng rng(uint64_t{0x10ad});
  std::vector<TrapSubmission> subs;
  for (uint64_t u = 0; u < 2; u++) {
    subs.push_back(fx.MakeTrap(800 + u, static_cast<uint32_t>(u % 2), rng,
                               "load " + std::to_string(u)));
  }
  for (int iter = 0; iter < 3; iter++) {
    ASSERT_TRUE(fx.StartGateway());
    fx.gateway->OpenRound(static_cast<uint64_t>(iter) + 1);
    std::atomic<bool> go{true};
    std::vector<std::thread> clients;
    for (uint64_t u = 0; u < 2; u++) {
      clients.emplace_back([&, u] {
        while (go.load()) {
          auto session = fx.Connect(800 + u);
          if (session == nullptr) {
            continue;  // gateway stopping; retry until told to quit
          }
          session->SubmitAndWait(subs[u]);
        }
      });
    }
    std::this_thread::sleep_for(100ms);
    fx.gateway->Stop();  // races live handshakes and in-flight submits
    go.store(false);
    for (auto& t : clients) {
      t.join();
    }
    EXPECT_EQ(fx.gateway->connection_count(), 0u) << "iteration " << iter;
    fx.gateway.reset();
  }
}

TEST(FleetRouting, ShardedFleetMatchesInProcess) {
  // One reactor gateway per entry group over a shared round: FleetClient
  // routes each message to its group's shard, the union of shard intakes
  // is the full round, and the result is byte-identical to the
  // in-process twin.
  constexpr uint64_t kSeed = 0xf1ee7;
  constexpr uint64_t kTakeSeed = 0xf14e;
  ReactorFixture net(Variant::kTrap, kSeed);
  ReactorFixture local(Variant::kTrap, kSeed);

  Rng sub_rng(uint64_t{0x9ab1e});
  std::vector<TrapSubmission> subs;
  for (uint64_t u = 0; u < 4; u++) {
    subs.push_back(net.MakeTrap(4000 + u, static_cast<uint32_t>(u % 2),
                                sub_rng, "fleet msg " + std::to_string(u)));
  }
  for (const auto& sub : subs) {
    ASSERT_TRUE(local.round->SubmitTrap(sub));
  }
  RoundResult want = RunRoundInEngine(*local.round, kTakeSeed);
  ASSERT_FALSE(want.aborted) << want.abort_reason;

  for (uint64_t u = 0; u < 4; u++) {
    net.AddClient(4000 + u);
  }
  net.registry.SeedFromDirectory(net.directory);
  Rng fleet_rng(uint64_t{0xf1e37});
  GatewayFleet fleet(net.round.get(), &net.registry, fleet_rng);
  ASSERT_TRUE(fleet.Listen());
  fleet.Start();
  ASSERT_EQ(fleet.size(), 2u);
  fleet.OpenRound(1);

  auto roster = fleet.Roster();
  ASSERT_EQ(roster.size(), 2u);

  // A shard only admits its own group: a gid-0 submission pushed at
  // shard 1 is rejected as misrouted, pre-verification.
  {
    auto wrong = ClientSession::Connect("127.0.0.1", roster[1].port,
                                        4000, net.client_keys[4000],
                                        roster[1].pk);
    ASSERT_NE(wrong, nullptr);
    ASSERT_EQ(wrong->WaitRoundOpen(), 1u);
    uint64_t seq = wrong->Submit(subs[0]);
    ASSERT_NE(seq, 0u);
    auto status = wrong->WaitResult(seq);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(*status, SubmitStatus::kRejected);
  }

  for (uint64_t u = 0; u < 4; u++) {
    FleetClient client("127.0.0.1", roster, 4000 + u,
                       net.client_keys[4000 + u]);
    uint32_t gid = static_cast<uint32_t>(u % 2);
    ASSERT_EQ(client.WaitRoundOpen(gid), 1u);
    ClientSession* session = client.Session(gid);
    ASSERT_NE(session, nullptr);
    ASSERT_TRUE(session->SubmitAndWait(subs[u]));
  }
  EXPECT_EQ(fleet.accepted_count(), 4u);
  EXPECT_GE(fleet.gateway(0).accepted_count(), 1u);
  EXPECT_GE(fleet.gateway(1).accepted_count(), 1u);
  fleet.Cutoff();
  fleet.Stop();

  RoundResult got = RunRoundInEngine(*net.round, kTakeSeed);
  ASSERT_FALSE(got.aborted) << got.abort_reason;
  EXPECT_EQ(got.plaintexts, want.plaintexts)
      << "fleet-sharded ingress diverged from in-process submission";
}

}  // namespace
}  // namespace atom
