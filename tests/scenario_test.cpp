// FaultPlan determinism + the adversarial scenario harness.
//
// The FaultPlan suites pin the replay contract: per-stream PRF decisions
// independent of interleaving, spec round-tripping, deterministic
// mutation. The Scenario suites (compiled only when the atom_server
// binary is available) run scaled-down versions of the named
// deployments over real processes; failures echo the seed for replay.
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "src/net/faults.h"
#include "src/testing/scenario.h"
#include "tests/seed_echo.h"

namespace atom {
namespace {

using atom_test::SeedEcho;
using atom_test::TestSeed;

std::vector<FaultDecision> DrawAll(FaultPlan& plan, uint64_t stream,
                                   size_t n) {
  std::vector<FaultDecision> out;
  for (size_t i = 0; i < n; i++) {
    out.push_back(plan.NextDecision(stream));
  }
  return out;
}

bool SameDecisions(const std::vector<FaultDecision>& a,
                   const std::vector<FaultDecision>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].action != b[i].action || a[i].delay != b[i].delay ||
        a[i].mutate_salt != b[i].mutate_salt) {
      return false;
    }
  }
  return true;
}

void MakeMixed(FaultPlan& plan) {
  plan.set_drop_rate(0.2);
  plan.set_duplicate_rate(0.1);
  plan.set_truncate_rate(0.1);
  plan.set_corrupt_rate(0.1);
  plan.set_delay(0.2, std::chrono::milliseconds(5));
}

TEST(FaultPlan, SameSeedSameDecisions) {
  const uint64_t seed = TestSeed(0xfa017);
  SeedEcho echo(seed);
  FaultPlan a(seed), b(seed);
  MakeMixed(a);
  MakeMixed(b);
  const uint64_t stream = FaultPlan::StreamKey(1, 2);
  EXPECT_TRUE(SameDecisions(DrawAll(a, stream, 200),
                            DrawAll(b, stream, 200)));
  // A different seed must not reproduce the stream (astronomically
  // unlikely for 200 draws at these rates).
  FaultPlan c(seed + 1);
  MakeMixed(c);
  EXPECT_FALSE(SameDecisions(DrawAll(a, stream, 200),
                             DrawAll(c, stream, 200)));
}

TEST(FaultPlan, StreamsAreInterleavingIndependent) {
  // The determinism contract: stream s's n-th decision is PRF(seed,s,n)
  // no matter how other streams' draws interleave with it.
  const uint64_t seed = TestSeed(0xfa018);
  SeedEcho echo(seed);
  const uint64_t s1 = FaultPlan::StreamKey(1, 2);
  const uint64_t s2 = FaultPlan::StreamKey(2, 1);  // asymmetric key
  ASSERT_NE(s1, s2);

  FaultPlan serial(seed);
  MakeMixed(serial);
  auto want1 = DrawAll(serial, s1, 100);
  auto want2 = DrawAll(serial, s2, 100);

  FaultPlan interleaved(seed);
  MakeMixed(interleaved);
  std::vector<FaultDecision> got1, got2;
  for (size_t i = 0; i < 100; i++) {
    got2.push_back(interleaved.NextDecision(s2));
    got1.push_back(interleaved.NextDecision(s1));
  }
  EXPECT_TRUE(SameDecisions(want1, got1));
  EXPECT_TRUE(SameDecisions(want2, got2));
}

TEST(FaultPlan, CountsTrackFiredDecisions) {
  const uint64_t seed = TestSeed(0xfa019);
  SeedEcho echo(seed);
  FaultPlan plan(seed);
  MakeMixed(plan);
  auto decisions = DrawAll(plan, FaultPlan::StreamKey(3, 4), 500);
  FaultPlan::Counts counts = plan.counts();
  uint64_t drops = 0, dups = 0, truncs = 0, corrupts = 0, delays = 0;
  for (const FaultDecision& d : decisions) {
    drops += d.action == FaultAction::kDrop;
    dups += d.action == FaultAction::kDuplicate;
    truncs += d.action == FaultAction::kTruncate;
    corrupts += d.action == FaultAction::kCorrupt;
    delays += d.action == FaultAction::kDelay;
  }
  EXPECT_EQ(counts.dropped, drops);
  EXPECT_EQ(counts.duplicated, dups);
  EXPECT_EQ(counts.truncated, truncs);
  EXPECT_EQ(counts.corrupted, corrupts);
  EXPECT_EQ(counts.delayed, delays);
  // With these rates over 500 draws, every class fires (p ≈ 1 - 1e-23
  // at the rarest rate); a zero means the cumulative thresholds broke.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(delays, 0u);
}

TEST(FaultPlan, MutateIsDeterministicAndBounded) {
  const uint64_t seed = TestSeed(0xfa01a);
  SeedEcho echo(seed);
  Bytes frame(64);
  for (size_t i = 0; i < frame.size(); i++) {
    frame[i] = static_cast<uint8_t>(i);
  }

  FaultDecision corrupt{FaultAction::kCorrupt, {}, /*mutate_salt=*/seed};
  Bytes a = frame, b = frame;
  FaultPlan::Mutate(corrupt, a);
  FaultPlan::Mutate(corrupt, b);
  EXPECT_EQ(a, b);  // same salt, same bit
  EXPECT_NE(a, frame);
  size_t flipped_bits = 0;
  for (size_t i = 0; i < frame.size(); i++) {
    uint8_t diff = a[i] ^ frame[i];
    while (diff != 0) {
      flipped_bits += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u);  // exactly one bit

  FaultDecision truncate{FaultAction::kTruncate, {}, seed};
  Bytes t = frame;
  FaultPlan::Mutate(truncate, t);
  EXPECT_LT(t.size(), frame.size());
  EXPECT_TRUE(std::equal(t.begin(), t.end(), frame.begin()));

  Bytes f1 = frame, f2 = frame;
  FaultPlan::FlipByte(seed, f1);
  FaultPlan::FlipByte(seed, f2);
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1, frame);
}

TEST(FaultPlan, SeverAndTamperAreRoundScoped) {
  FaultPlan plan(1);
  plan.SeverLink(1, 3, 2, 4);
  plan.SeverLink(5, 6);  // all rounds
  EXPECT_FALSE(plan.LinkSevered(1, 1, 3));
  EXPECT_TRUE(plan.LinkSevered(2, 1, 3));
  EXPECT_TRUE(plan.LinkSevered(4, 3, 1));  // undirected
  EXPECT_FALSE(plan.LinkSevered(5, 1, 3));
  EXPECT_FALSE(plan.LinkSevered(3, 1, 2));  // unrelated pair
  EXPECT_TRUE(plan.LinkSevered(1, 5, 6));
  EXPECT_TRUE(plan.LinkSevered(1000, 6, 5));

  plan.TamperRounds(3, 3);
  EXPECT_FALSE(plan.TamperRound(2));
  EXPECT_TRUE(plan.TamperRound(3));
  EXPECT_FALSE(plan.TamperRound(4));
}

TEST(FaultPlan, DisconnectStreamsArePerClient) {
  const uint64_t seed = TestSeed(0xfa01b);
  SeedEcho echo(seed);
  FaultPlan a(seed), b(seed);
  a.set_client_disconnect_rate(0.5);
  b.set_client_disconnect_rate(0.5);
  // Client 7's verdicts replay identically even when client 9's draws
  // interleave differently on the twin plan.
  std::vector<bool> got_a, got_b;
  for (int i = 0; i < 100; i++) {
    got_a.push_back(a.DisconnectClient(7));
  }
  for (int i = 0; i < 100; i++) {
    b.DisconnectClient(9);
    got_b.push_back(b.DisconnectClient(7));
  }
  EXPECT_EQ(got_a, got_b);
  uint64_t fired = 0;
  for (bool v : got_a) {
    fired += v;
  }
  EXPECT_EQ(a.counts().disconnects, fired);
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 100u);
}

TEST(FaultPlanSpec, RoundTripsThroughText) {
  FaultPlan plan(42);
  plan.set_drop_rate(0.25);
  plan.set_duplicate_rate(0.125);
  plan.set_truncate_rate(0.0625);
  plan.set_corrupt_rate(0.03125);
  plan.set_delay(0.5, std::chrono::milliseconds(7));
  plan.set_stall(std::chrono::milliseconds(11));
  plan.SeverLink(1, 3, 2, 2);
  plan.TamperRounds(4, 5);
  plan.set_client_disconnect_rate(0.75);

  auto parsed = FaultPlan::Parse(plan.ToSpec());
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->ToSpec(), plan.ToSpec());
  EXPECT_EQ(parsed->seed(), 42u);
  EXPECT_EQ(parsed->stall(), std::chrono::milliseconds(11));
  EXPECT_TRUE(parsed->LinkSevered(2, 3, 1));
  EXPECT_FALSE(parsed->LinkSevered(3, 1, 3));
  EXPECT_TRUE(parsed->TamperRound(4));
  // Identical decision streams after the round trip.
  const uint64_t stream = FaultPlan::StreamKey(1, 2);
  EXPECT_TRUE(
      SameDecisions(DrawAll(plan, stream, 64), DrawAll(*parsed, stream, 64)));
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  // Unknown or malformed fields must reject the whole spec — a typo that
  // silently weakened a scenario would invalidate its invariants.
  const char* bad[] = {
      "seed",           "seed=",          "seed=abc",
      "drop=1.5",       "drop=-0.1",      "drop=x",
      "delay=ms",       "delay=5@2",      "stall=ms",
      "sever=1",        "sever=1-2@3",    "sever=a-b",
      "tamper=3",       "tamper=a-b",     "disconnect=2",
      "seed=1;bogus=2",
  };
  for (const char* spec : bad) {
    EXPECT_EQ(FaultPlan::Parse(spec), nullptr) << spec;
  }
  // And the good forms parse (empty segments are tolerated so a
  // trailing ';' from shell quoting doesn't invalidate a spec).
  EXPECT_NE(FaultPlan::Parse("seed=9"), nullptr);
  EXPECT_NE(FaultPlan::Parse("seed=9;;drop=0.1;"), nullptr);
  EXPECT_NE(FaultPlan::Parse("seed=9;delay=5"), nullptr);  // bare MS = p 1
  EXPECT_NE(FaultPlan::Parse("seed=9;drop=0.5;delay=5@0.25"), nullptr);
  EXPECT_NE(FaultPlan::Parse("sever=1-2"), nullptr);
  EXPECT_NE(FaultPlan::Parse("seed=9;tamper=2-2;stall=10"), nullptr);
}

TEST(ScenarioConfig, ZeroRoundsOrUsersFailBeforeSpawning) {
  // Zero rounds or zero users would check nothing, so they must not
  // report OK. The binary path is bogus: a spawn attempt would fail with
  // a different reason than the one asserted.
  for (auto [rounds, users] : {std::pair<size_t, uint32_t>{0, 4}, {2, 0}}) {
    ScenarioConfig config;
    config.name = "byzantine";
    config.rounds = rounds;
    config.users = users;
    config.server_binary = "/nonexistent/atom_server";
    ScenarioReport report = RunScenario(config);
    EXPECT_FALSE(report.ok) << "rounds=" << rounds << " users=" << users;
    EXPECT_NE(report.failure.find("at least one round and one user"),
              std::string::npos)
        << report.failure;
    EXPECT_TRUE(report.rounds.empty());
  }
}

// ---- Full scenarios over real atom_server processes.

#ifdef ATOM_SERVER_BINARY

ScenarioConfig SmallScenario(const char* name, uint64_t seed) {
  ScenarioConfig config;
  config.name = name;
  config.seed = seed;
  config.rounds = 2;  // still covers the faulted round (id 2)
  config.users = 4;
  config.server_binary = ATOM_SERVER_BINARY;
  return config;
}

void RunAndExpectOk(const ScenarioConfig& config) {
  SeedEcho echo(config.seed);
  ScenarioReport report = RunScenario(config);
  EXPECT_TRUE(report.ok) << report.failure << "\nreplay: chaos_fleet"
                         << " --scenario " << config.name << " --seed "
                         << config.seed;
  // The report serializes (CI uploads these as artifacts).
  EXPECT_NE(report.ToJson().find("\"scenario\":\"" + config.name + "\""),
            std::string::npos);
}

TEST(Scenario, CleanFleetMatchesTwin) {
  RunAndExpectOk(SmallScenario("clean", TestSeed(20)));
}

TEST(Scenario, ChurnHoldsByteTwinUnderForcedDisconnects) {
  RunAndExpectOk(SmallScenario("churn", TestSeed(21)));
}

TEST(Scenario, FlashCrowdIsBoundedByBackpressure) {
  RunAndExpectOk(SmallScenario("flash_crowd", TestSeed(22)));
}

TEST(Scenario, PartitionAbortsOnlyTheSeveredRound) {
  RunAndExpectOk(SmallScenario("partition", TestSeed(23)));
}

TEST(Scenario, StragglerSlowsButCompletes) {
  RunAndExpectOk(SmallScenario("straggler", TestSeed(24)));
}

TEST(Scenario, ByzantineMixerIsDetectedWithoutFramingUsers) {
  RunAndExpectOk(SmallScenario("byzantine", TestSeed(25)));
}

TEST(Scenario, DialingSurvivesChurn) {
  ScenarioConfig config = SmallScenario("churn", TestSeed(26));
  config.workload = WorkloadKind::kDialing;
  RunAndExpectOk(config);
}

TEST(Scenario, MicroblogSurvivesStraggler) {
  ScenarioConfig config = SmallScenario("straggler", TestSeed(27));
  config.workload = WorkloadKind::kMicroblog;
  RunAndExpectOk(config);
}

size_t CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 0;
  }
  size_t n = 0;
  while (dirent* entry = readdir(dir)) {
    n += entry->d_name[0] != '.';
  }
  closedir(dir);
  return n - 1;  // the opendir fd itself
}

long RssKb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kb;
}

// The 10x-population reactor runs: the same invariant matrix (liveness,
// blame, fidelity, workload) the small scenarios assert, over the epoll
// gateway, plus resource hygiene — sockets and memory must return to
// baseline after the run (a per-connection or per-round leak at this
// population is visible; at the small one it hides). A small warmup run
// settles one-time allocations (thread pool, allocator arenas) so the
// measured run's growth is the scenario's own.
void RunTenXOverReactor(const char* name, uint64_t warm_seed,
                        uint64_t seed) {
  ScenarioConfig warmup = SmallScenario(name, warm_seed);
  RunAndExpectOk(warmup);

  ScenarioConfig config = SmallScenario(name, seed);
  config.users = 40;  // 10x the small population
  size_t fds_before = CountOpenFds();
  long rss_before = RssKb();
  RunAndExpectOk(config);
  EXPECT_LE(CountOpenFds(), fds_before + 4)
      << name << " at 10x leaked file descriptors across its rounds";
  EXPECT_LE(RssKb(), rss_before + 64 * 1024)
      << name << " at 10x grew RSS past the leak bound";
}

TEST(Scenario, ChurnAtTenXOverReactorWithoutLeaks) {
  RunTenXOverReactor("churn", TestSeed(28), TestSeed(29));
}

TEST(Scenario, FlashCrowdAtTenXOverReactorWithoutLeaks) {
  RunTenXOverReactor("flash_crowd", TestSeed(30), TestSeed(31));
}

#endif  // ATOM_SERVER_BINARY

}  // namespace
}  // namespace atom
