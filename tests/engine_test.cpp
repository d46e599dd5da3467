// Tests for the dependency-scheduled RoundEngine (src/core/engine.h): the
// pipelined hop-graph executor must hand back exactly the payloads the
// entry groups encrypted for every variant × topology combination,
// pipeline several rounds concurrently without mixing them up, confine a
// mid-pipeline malicious action to the round it hits, and keep each
// engine-native exit's trap bookkeeping to its own round. Byte-exact
// output (permutation and exit order included) is pinned by the golden
// round digests (tests/golden_round_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/round.h"
#include "src/crypto/elgamal.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

// A permutation network fixture at the GroupRuntime level (no entry/exit
// phase bookkeeping): G groups, each a k-server anytrust chain.
struct Network {
  std::unique_ptr<Topology> topology;
  std::vector<std::unique_ptr<GroupRuntime>> groups;

  static Network Square(size_t width, size_t iterations, size_t k, Rng& rng) {
    Network net;
    net.topology = std::make_unique<SquareTopology>(width, iterations);
    net.MakeGroups(k, rng);
    return net;
  }

  static Network Butterfly(size_t log2_width, size_t passes, size_t k,
                           Rng& rng) {
    Network net;
    net.topology = std::make_unique<ButterflyTopology>(log2_width, passes);
    net.MakeGroups(k, rng);
    return net;
  }

  void MakeGroups(size_t k, Rng& rng) {
    for (uint32_t g = 0; g < topology->Width(); g++) {
      groups.push_back(
          std::make_unique<GroupRuntime>(g, RunDkg(DkgParams{k, k}, rng)));
    }
  }

  std::vector<const GroupRuntime*> GroupPtrs() const {
    std::vector<const GroupRuntime*> out;
    for (const auto& g : groups) {
      out.push_back(g.get());
    }
    return out;
  }

  // One single-component message per payload, encrypted to the entry
  // group: entry group g's i-th payload is {tag, g, i}.
  std::vector<CiphertextBatch> MakeEntry(size_t per_group, uint8_t tag,
                                         Rng& rng) {
    std::vector<CiphertextBatch> entry(topology->Width());
    for (uint32_t g = 0; g < topology->Width(); g++) {
      for (size_t i = 0; i < per_group; i++) {
        Bytes payload = {tag, static_cast<uint8_t>(g),
                         static_cast<uint8_t>(i)};
        entry[g].push_back({ElGamalEncrypt(
            groups[g]->pk(), *EmbedMessage(BytesView(payload)), rng)});
      }
    }
    return entry;
  }

  // The sorted hex payloads MakeEntry(per_group, tag) encrypts, less the
  // groups in `silent`: exactly what the exit must hand back.
  std::vector<std::string> Payloads(size_t per_group, uint8_t tag,
                                    const std::set<uint32_t>& silent = {})
      const {
    std::vector<std::string> out;
    for (uint32_t g = 0; g < topology->Width(); g++) {
      if (silent.count(g) != 0) {
        continue;
      }
      for (size_t i = 0; i < per_group; i++) {
        Bytes payload = {tag, static_cast<uint8_t>(g),
                         static_cast<uint8_t>(i)};
        out.push_back(HexEncode(BytesView(payload)));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  EngineRound Spec(std::vector<CiphertextBatch> entry, Variant variant,
                   Rng& rng) const {
    EngineRound spec;
    spec.topology = topology.get();
    spec.groups = GroupPtrs();
    spec.variant = variant;
    spec.entry = std::move(entry);
    rng.Fill(spec.seed.data(), spec.seed.size());
    return spec;
  }
};

// Decrypts fully-stripped exit batches and returns the sorted hex
// plaintexts — the anonymity-set view of the round's output.
std::vector<std::string> SortedPlaintexts(
    const std::vector<CiphertextBatch>& exits) {
  std::vector<std::string> out;
  for (const auto& batch : exits) {
    auto points = ExitPlaintexts(batch);
    EXPECT_TRUE(points.has_value());
    for (const auto& vec : *points) {
      for (const Point& p : vec) {
        auto bytes = ExtractMessage(p);
        EXPECT_TRUE(bytes.has_value());
        out.push_back(HexEncode(BytesView(*bytes)));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct EquivalenceCase {
  Variant variant;
  TopologyKind topology;
  const char* name;
};

class EngineMixing : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineMixing, ExitsCarryExactlyTheEncryptedPayloads) {
  const EquivalenceCase& c = GetParam();
  Rng rng(0xe9417e5u + static_cast<uint64_t>(c.variant) * 31 +
          static_cast<uint64_t>(c.topology));
  Network net = c.topology == TopologyKind::kSquare
                    ? Network::Square(3, 3, 2, rng)
                    : Network::Butterfly(1, 3, 2, rng);

  RoundEngine engine(&ThreadPool::Shared());
  auto result = engine.RunToCompletion(
      net.Spec(net.MakeEntry(3, 0xa0, rng), c.variant, rng));
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(SortedPlaintexts(result.exits), net.Payloads(3, 0xa0));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, EngineMixing,
    ::testing::Values(
        EquivalenceCase{Variant::kTrap, TopologyKind::kSquare, "TrapSquare"},
        EquivalenceCase{Variant::kNizk, TopologyKind::kSquare, "NizkSquare"},
        EquivalenceCase{Variant::kTrap, TopologyKind::kButterfly,
                        "TrapButterfly"},
        EquivalenceCase{Variant::kNizk, TopologyKind::kButterfly,
                        "NizkButterfly"}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      return info.param.name;
    });

TEST(RoundEngine, HandlesEmptyAndUnbalancedEntryGroups) {
  Rng rng(0xbadbeefu);
  Network net = Network::Square(3, 3, 2, rng);
  auto entry = net.MakeEntry(2, 0xb0, rng);
  entry[1].clear();  // one silent entry group

  RoundEngine engine(&ThreadPool::Shared());
  auto result = engine.RunToCompletion(
      net.Spec(std::move(entry), Variant::kTrap, rng));
  ASSERT_FALSE(result.aborted);
  EXPECT_EQ(SortedPlaintexts(result.exits), net.Payloads(2, 0xb0, {1}));
}

TEST(RoundEngine, PipelinesMultipleRoundsWithoutCrosstalk) {
  Rng rng(0x9191u);
  Network net = Network::Square(3, 3, 2, rng);

  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::string>> want;
  std::vector<uint64_t> tickets;
  RoundEngine engine(&ThreadPool::Shared());
  for (size_t r = 0; r < kRounds; r++) {
    const uint8_t tag = static_cast<uint8_t>(0xc0 + r);
    want.push_back(net.Payloads(2, tag));
    tickets.push_back(engine.Submit(
        net.Spec(net.MakeEntry(2, tag, rng), Variant::kTrap, rng)));
  }
  // All rounds are now in flight together; each must come back with
  // exactly its own plaintext set.
  for (size_t r = 0; r < kRounds; r++) {
    auto result = engine.Wait(tickets[r]);
    ASSERT_FALSE(result.aborted) << result.abort_reason;
    EXPECT_EQ(SortedPlaintexts(result.exits), want[r]) << "round " << r;
  }
}

TEST(RoundEngine, FaultMidPipelineAbortsOnlyTheAffectedRound) {
  Rng rng(0xfa017u);
  Network net = Network::Square(3, 3, 2, rng);

  RoundEngine engine(&ThreadPool::Shared());
  std::vector<uint64_t> tickets;
  for (size_t r = 0; r < 3; r++) {
    auto spec = net.Spec(net.MakeEntry(2, static_cast<uint8_t>(0xd0 + r), rng),
                         Variant::kNizk, rng);
    if (r == 1) {
      // Server 2 of group 0 tampers during the layer-1 shuffle; in the
      // NIZK variant the proof check catches it immediately.
      spec.faults.push_back(HopFault{
          1, 0, {MaliciousAction::Kind::kTamperDuringShuffle, 2, 0}});
    }
    tickets.push_back(engine.Submit(std::move(spec)));
  }

  auto r0 = engine.Wait(tickets[0]);
  auto r1 = engine.Wait(tickets[1]);
  auto r2 = engine.Wait(tickets[2]);

  EXPECT_TRUE(r1.aborted);
  EXPECT_NE(r1.abort_reason.find("group 0 layer 1"), std::string::npos)
      << r1.abort_reason;

  ASSERT_FALSE(r0.aborted) << r0.abort_reason;
  ASSERT_FALSE(r2.aborted) << r2.abort_reason;
  EXPECT_EQ(SortedPlaintexts(r0.exits).size(), 6u);
  EXPECT_EQ(SortedPlaintexts(r2.exits).size(), 6u);
}

TEST(RoundEngine, FirstFaultOnAHopWins) {
  // Faults are matched first-match: of two faults pinned to the same
  // (layer, gid), only the first acts.
  Rng rng(0x2fa017u);
  Network net = Network::Square(3, 3, 2, rng);
  auto spec = net.Spec(net.MakeEntry(2, 0xe0, rng), Variant::kNizk, rng);
  spec.faults.push_back(
      HopFault{1, 0, {MaliciousAction::Kind::kTamperDuringShuffle, 1, 0}});
  spec.faults.push_back(
      HopFault{1, 0, {MaliciousAction::Kind::kTamperDuringReEnc, 1, 0}});
  RoundEngine engine(&ThreadPool::Shared());
  auto result = engine.RunToCompletion(std::move(spec));
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("shuffle"), std::string::npos)
      << result.abort_reason;
}

// ---- Per-engine-round trap bookkeeping isolation ----------------------

RoundConfig ExitConfig(Variant variant) {
  RoundConfig config;
  config.params.variant = variant;
  config.params.num_servers = 6;
  config.params.num_groups = 3;
  config.params.group_size = 2;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = 32;
  config.beacon = ToBytes("exit-equivalence-beacon");
  return config;
}

TEST(EngineNativeExit, TrapMismatchInOneRoundDoesNotCorruptTheNext) {
  // Each TakeEngineRound packages its own commitment set; a cheating user
  // in pipelined round i must abort round i alone, and rounds i+1, i+2
  // (same Round, same key epoch, in flight concurrently) must complete
  // with exactly their own messages and trap accounting.
  Rng rng(0xab5e11u);
  Round round(ExitConfig(Variant::kTrap), rng);
  RoundEngine engine(&ThreadPool::Shared());

  auto submit_users = [&](uint32_t count, const std::string& tag,
                          bool cheat) {
    std::set<std::string> sent;
    for (uint32_t u = 0; u < count; u++) {
      uint32_t gid = u % round.NumGroups();
      Bytes msg = ToBytes(tag + std::to_string(u));
      sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(msg),
                                    round.layout(), rng);
      if (cheat && u == 0) {
        sub.trap_commitment[0] ^= 0xff;
      }
      EXPECT_TRUE(round.SubmitTrap(sub));
    }
    return sent;
  };

  submit_users(3, "poisoned ", /*cheat=*/true);
  auto spec1 = round.TakeEngineRound({}, rng);
  uint64_t epoch1 = spec1.intake_epoch;
  auto sent2 = submit_users(4, "clean-a ", false);
  auto spec2 = round.TakeEngineRound({}, rng);
  auto sent3 = submit_users(3, "clean-b ", false);
  auto spec3 = round.TakeEngineRound({}, rng);

  uint64_t t1 = engine.Submit(std::move(spec1));
  uint64_t t2 = engine.Submit(std::move(spec2));
  uint64_t t3 = engine.Submit(std::move(spec3));

  auto r1 = engine.Wait(t1).round;
  auto r2 = engine.Wait(t2).round;
  auto r3 = engine.Wait(t3).round;

  EXPECT_TRUE(r1.aborted);
  EXPECT_NE(r1.abort_reason.find("trustees refused"), std::string::npos)
      << r1.abort_reason;
  // §4.6 blame still reaches the aborted round's batch even though two
  // later epochs were taken: the cheater was user 0 of entry group 0
  // (the cheating submission is that group's first accepted one).
  auto blame = round.BlameEntryGroup(0, epoch1);
  ASSERT_EQ(blame.bad_users.size(), 1u);
  EXPECT_EQ(blame.bad_users[0], 0u);
  // The newest epoch (round 3, all honest) blames nobody.
  EXPECT_TRUE(round.BlameEntryGroup(0).bad_users.empty());

  auto hex_set = [](const std::vector<Bytes>& plaintexts) {
    std::set<std::string> out;
    for (const auto& p : plaintexts) {
      out.insert(HexEncode(BytesView(p)));
    }
    return out;
  };
  ASSERT_FALSE(r2.aborted) << r2.abort_reason;
  EXPECT_EQ(hex_set(r2.plaintexts), sent2);
  EXPECT_EQ(r2.traps_seen, 4u);
  EXPECT_EQ(r2.inner_seen, 4u);
  ASSERT_FALSE(r3.aborted) << r3.abort_reason;
  EXPECT_EQ(hex_set(r3.plaintexts), sent3);
  EXPECT_EQ(r3.traps_seen, 3u);
}

TEST(EngineNativeExit, OneKeyEpochServesAPipelineOfFullRounds) {
  // intake -> mix -> exit entirely inside the engine, several rounds in
  // flight at once, all under one Round's keys (§4.7 deployments re-key
  // far less often than they batch).
  Rng rng(0x1b1d5u);
  Round round(ExitConfig(Variant::kTrap), rng);
  RoundEngine engine(&ThreadPool::Shared());

  constexpr size_t kRounds = 3;
  std::vector<std::set<std::string>> sent(kRounds);
  std::vector<uint64_t> tickets;
  for (size_t r = 0; r < kRounds; r++) {
    for (uint32_t u = 0; u < 4; u++) {
      uint32_t gid = u % round.NumGroups();
      Bytes msg = ToBytes("epoch" + std::to_string(r) + " user" +
                          std::to_string(u));
      sent[r].insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(msg),
                                    round.layout(), rng);
      ASSERT_TRUE(round.SubmitTrap(sub));
    }
    tickets.push_back(engine.Submit(round.TakeEngineRound({}, rng)));
  }
  for (size_t r = 0; r < kRounds; r++) {
    auto result = engine.Wait(tickets[r]).round;
    ASSERT_FALSE(result.aborted) << "round " << r << ": "
                                 << result.abort_reason;
    std::set<std::string> got;
    for (const auto& p : result.plaintexts) {
      got.insert(HexEncode(BytesView(p)));
    }
    EXPECT_EQ(got, sent[r]) << "round " << r;
    EXPECT_EQ(result.traps_seen, 4u) << "round " << r;
    EXPECT_EQ(result.inner_seen, 4u) << "round " << r;
  }
}

}  // namespace
}  // namespace atom
