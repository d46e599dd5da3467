// Integration tests for the core Atom protocol: message formats, client
// submissions, single group hops (Algorithms 1 & 2), full rounds in both
// variants, fault tolerance, malicious-server detection, and blame.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "src/core/round.h"
#include "src/crypto/kem.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

// ------------------------------------------------------------- messages --

TEST(MessageLayout, NizkLayoutMatchesPaperSizes) {
  // 160-byte microblog message: ceil(160/30) = 6 points.
  auto layout = LayoutFor(Variant::kNizk, 160);
  EXPECT_EQ(layout.padded_len, 160u);
  EXPECT_EQ(layout.num_points, 6u);
  // 80-byte dialing message: 3 points.
  EXPECT_EQ(LayoutFor(Variant::kNizk, 80).num_points, 3u);
}

TEST(MessageLayout, TrapLayoutAddsKemOverhead) {
  auto layout = LayoutFor(Variant::kTrap, 160);
  EXPECT_EQ(layout.padded_len, 1 + kKemOverhead + 160);
  EXPECT_EQ(layout.num_points, (layout.padded_len + 29) / 30);
}

TEST(MessageFormat, FragmentReassembleRoundTrip) {
  Rng rng(700u);
  for (size_t len : {30u, 82u, 160u, 210u}) {
    MessageLayout layout{len, len, (len + 29) / 30};
    Bytes data = rng.NextBytes(len);
    auto points = FragmentToPoints(BytesView(data), layout);
    auto back = ReassembleFromPoints(points, layout);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, data);
  }
}

TEST(MessageFormat, TrapRoundTrip) {
  Rng rng(701u);
  auto layout = LayoutFor(Variant::kTrap, 64);
  Bytes nonce = rng.NextBytes(kTrapNonceLen);
  Bytes trap = MakeTrapPlaintext(17, BytesView(nonce), layout);
  EXPECT_EQ(trap.size(), layout.padded_len);
  auto parsed = ParseTrap(BytesView(trap));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->gid, 17u);
  EXPECT_EQ(parsed->nonce, nonce);
  EXPECT_FALSE(ParseMessage(BytesView(trap)).has_value());
}

TEST(MessageFormat, MessageRoundTrip) {
  Rng rng(702u);
  auto layout = LayoutFor(Variant::kTrap, 64);
  Bytes inner = rng.NextBytes(layout.padded_len - 1);
  Bytes msg = MakeMessagePlaintext(BytesView(inner), layout);
  auto parsed = ParseMessage(BytesView(msg));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, inner);
  EXPECT_FALSE(ParseTrap(BytesView(msg)).has_value());
}

TEST(MessageFormat, DummyPlaintextsAreRecognized) {
  Rng rng(704u);
  auto layout = LayoutFor(Variant::kTrap, 64);
  Bytes dummy = MakeDummyPlaintext(layout, rng);
  EXPECT_EQ(dummy.size(), layout.padded_len);
  EXPECT_TRUE(IsDummy(BytesView(dummy)));
  // Dummies collide with neither traps nor messages nor ordinary bytes.
  EXPECT_FALSE(ParseTrap(BytesView(dummy)).has_value());
  EXPECT_FALSE(ParseMessage(BytesView(dummy)).has_value());
  Bytes user = PadTo(BytesView(ToBytes("Dear friend, meet at dawn")), 64);
  EXPECT_FALSE(IsDummy(BytesView(user)));
  // Two dummies differ (random filler).
  Bytes dummy2 = MakeDummyPlaintext(layout, rng);
  EXPECT_NE(dummy, dummy2);
}

TEST(MessageFormat, CommitmentIsBindingToContent) {
  Rng rng(703u);
  auto layout = LayoutFor(Variant::kTrap, 64);
  Bytes nonce = rng.NextBytes(kTrapNonceLen);
  Bytes trap1 = MakeTrapPlaintext(1, BytesView(nonce), layout);
  Bytes trap2 = MakeTrapPlaintext(2, BytesView(nonce), layout);
  EXPECT_NE(CommitTrap(BytesView(trap1)), CommitTrap(BytesView(trap2)));
}

TEST(Params, ValidateCatchesIncoherentConfigs) {
  AtomParams good;
  good.num_servers = 6;
  good.num_groups = 4;
  good.group_size = 3;
  EXPECT_TRUE(good.Validate().empty());

  AtomParams p = good;
  p.group_size = 0;
  EXPECT_FALSE(p.Validate().empty());

  p = good;
  p.num_servers = 2;  // smaller than group_size
  EXPECT_FALSE(p.Validate().empty());

  p = good;
  p.honest_needed = 4;  // more honest than the group holds
  EXPECT_FALSE(p.Validate().empty());

  p = good;
  p.topology = TopologyKind::kButterfly;
  p.num_groups = 3;  // not a power of two
  EXPECT_FALSE(p.Validate().empty());
  p.num_groups = 4;
  EXPECT_TRUE(p.Validate().empty());
}

// --------------------------------------------------------------- client --

TEST(Client, NizkSubmissionVerifies) {
  Rng rng(710u);
  auto kp = ElGamalKeyGen(rng);
  auto layout = LayoutFor(Variant::kNizk, 160);
  auto sub = MakeNizkSubmission(kp.pk, 3, BytesView(ToBytes("post")), layout,
                                rng);
  EXPECT_TRUE(VerifyNizkSubmission(kp.pk, sub, layout));
  // Replay at a different group id fails.
  sub.entry_gid = 4;
  EXPECT_FALSE(VerifyNizkSubmission(kp.pk, sub, layout));
}

TEST(Client, TrapSubmissionVerifies) {
  Rng rng(711u);
  auto group = ElGamalKeyGen(rng);
  auto trustee = ElGamalKeyGen(rng);
  auto layout = LayoutFor(Variant::kTrap, 160);
  TrapSubmissionSecrets secrets;
  auto sub = MakeTrapSubmission(group.pk, 5, trustee.pk,
                                BytesView(ToBytes("whistle")), layout, rng,
                                &secrets);
  EXPECT_TRUE(VerifyTrapSubmission(group.pk, sub, layout));
  EXPECT_EQ(sub.first.size(), sub.second.size());  // indistinguishable sizes
  EXPECT_EQ(CommitTrap(BytesView(secrets.trap_plaintext)),
            sub.trap_commitment);
}

TEST(Client, TrapOrderIsRandomized) {
  Rng rng(712u);
  auto group = ElGamalKeyGen(rng);
  auto trustee = ElGamalKeyGen(rng);
  auto layout = LayoutFor(Variant::kTrap, 32);
  int first_is_trap = 0;
  for (int i = 0; i < 40; i++) {
    TrapSubmissionSecrets secrets;
    MakeTrapSubmission(group.pk, 0, trustee.pk, BytesView(ToBytes("m")),
                       layout, rng, &secrets);
    first_is_trap += secrets.first_is_trap ? 1 : 0;
  }
  EXPECT_GT(first_is_trap, 5);
  EXPECT_LT(first_is_trap, 35);
}

// ------------------------------------------------------------ group hop --

struct HopFixture {
  Rng rng{uint64_t{720}};
  DkgParams dkg_params{3, 3};  // 3 servers, anytrust (h = 1)
  GroupRuntime group{0, RunDkg(dkg_params, rng)};
  GroupRuntime next_a{1, RunDkg(dkg_params, rng)};
  GroupRuntime next_b{2, RunDkg(dkg_params, rng)};

  CiphertextBatch MakeBatch(size_t n, size_t l) {
    CiphertextBatch batch(n);
    for (size_t i = 0; i < n; i++) {
      for (size_t c = 0; c < l; c++) {
        Bytes payload = {static_cast<uint8_t>(i), static_cast<uint8_t>(c)};
        batch[i].push_back(
            ElGamalEncrypt(group.pk(), *EmbedMessage(BytesView(payload)),
                           rng));
      }
    }
    return batch;
  }

  Scalar SecretOf(const GroupRuntime& g) {
    std::vector<Share> shares;
    for (const auto& key : g.dkg().keys) {
      shares.push_back(Share{key.index, key.share});
    }
    auto s = ShamirReconstruct(shares, g.dkg().pub.params.threshold);
    EXPECT_TRUE(s.has_value());
    return *s;
  }
};

TEST(GroupHop, TrapVariantForwardsDecryptably) {
  HopFixture f;
  auto batch = f.MakeBatch(6, 2);
  std::vector<Point> next_pks = {f.next_a.pk(), f.next_b.pk()};
  auto hop = f.group.RunHop(batch, next_pks, Variant::kTrap, f.rng);
  ASSERT_FALSE(hop.aborted) << hop.abort_reason;
  ASSERT_EQ(hop.batches.size(), 2u);
  EXPECT_EQ(hop.batches[0].size() + hop.batches[1].size(), 6u);

  // Each forwarded batch decrypts under the destination group's secret.
  std::set<std::string> plaintexts;
  for (size_t b = 0; b < 2; b++) {
    Scalar secret = f.SecretOf(b == 0 ? f.next_a : f.next_b);
    for (const auto& vec : hop.batches[b]) {
      for (const auto& ct : vec) {
        auto m = ElGamalDecrypt(secret, ct);
        ASSERT_TRUE(m.has_value());
        auto bytes = ExtractMessage(*m);
        ASSERT_TRUE(bytes.has_value());
        plaintexts.insert(HexEncode(BytesView(*bytes)));
      }
    }
  }
  EXPECT_EQ(plaintexts.size(), 12u);  // all 6 x 2 component payloads survive
}

TEST(GroupHop, NizkVariantHonestRunSucceeds) {
  HopFixture f;
  auto batch = f.MakeBatch(4, 1);
  std::vector<Point> next_pks = {f.next_a.pk()};
  auto hop = f.group.RunHop(batch, next_pks, Variant::kNizk, f.rng);
  EXPECT_FALSE(hop.aborted) << hop.abort_reason;
  EXPECT_GT(hop.stats.shuffle_seconds, 0.0);
  EXPECT_GT(hop.stats.verify_seconds, 0.0);
}

// Tables handed in by the caller (all, some or none of them) change only
// how the rewrap products are computed, never the hop's output; an empty
// slot gets the table the hop builds once the reuse amortizes it.
TEST(GroupHop, CallerTablesLeaveTheHopUnchanged) {
  HopFixture f;
  std::vector<Point> next_pks = {f.next_a.pk(), f.next_b.pk()};
  for (Variant variant : {Variant::kTrap, Variant::kNizk}) {
    // 3x1 stays below the hop's own table threshold, 6x2 goes above it.
    for (auto [n, l] : {std::pair<size_t, size_t>{3, 1}, {6, 2}}) {
      auto batch = f.MakeBatch(n, l);
      std::vector<std::shared_ptr<const FixedBaseTable>> all = {
          f.next_a.shared_pk_table(), f.next_b.shared_pk_table()};
      std::vector<std::shared_ptr<const FixedBaseTable>> one = {
          nullptr, f.next_b.shared_pk_table()};
      Rng rng_own(uint64_t{5}), rng_all(uint64_t{5}), rng_one(uint64_t{5});
      auto own = f.group.RunHop(batch, next_pks, variant, rng_own);
      auto with_all =
          f.group.RunHop(batch, next_pks, variant, rng_all, 1, nullptr, all);
      auto with_one =
          f.group.RunHop(batch, next_pks, variant, rng_one, 1, nullptr, one);
      ASSERT_FALSE(own.aborted) << own.abort_reason;
      ASSERT_FALSE(with_all.aborted) << with_all.abort_reason;
      ASSERT_FALSE(with_one.aborted) << with_one.abort_reason;
      EXPECT_EQ(own.batches, with_all.batches);
      EXPECT_EQ(own.batches, with_one.batches);
      EXPECT_EQ(all[0], f.next_a.shared_pk_table());
      if (n * l < 12) {
        EXPECT_EQ(one[0], nullptr);
      } else {
        ASSERT_NE(one[0], nullptr);
        EXPECT_EQ(one[0]->base(), f.next_a.pk());
      }
    }
  }
}

TEST(GroupHop, NizkCatchesShuffleTampering) {
  HopFixture f;
  auto batch = f.MakeBatch(4, 1);
  std::vector<Point> next_pks = {f.next_a.pk()};
  for (uint32_t bad_server : {1u, 2u, 3u}) {
    MaliciousAction evil{MaliciousAction::Kind::kTamperDuringShuffle,
                         bad_server, 2};
    auto hop = f.group.RunHop(batch, next_pks, Variant::kNizk, f.rng, 1,
                              &evil);
    EXPECT_TRUE(hop.aborted);
    EXPECT_NE(hop.abort_reason.find("shuffle"), std::string::npos);
  }
}

TEST(GroupHop, NizkCatchesReEncTampering) {
  HopFixture f;
  auto batch = f.MakeBatch(4, 1);
  std::vector<Point> next_pks = {f.next_a.pk()};
  MaliciousAction evil{MaliciousAction::Kind::kTamperDuringReEnc, 2, 1};
  auto hop = f.group.RunHop(batch, next_pks, Variant::kNizk, f.rng, 1, &evil);
  EXPECT_TRUE(hop.aborted);
  EXPECT_NE(hop.abort_reason.find("reencryption"), std::string::npos);
}

TEST(GroupHop, NizkBlamesExactlyTheCheatingServer) {
  // Each server step's proofs are checked as one batch across all β
  // sub-batches; the abort must still name the server whose step failed.
  HopFixture f;
  auto batch = f.MakeBatch(6, 2);
  std::vector<Point> next_pks = {f.next_a.pk(), f.next_b.pk()};
  const size_t k = f.group.dkg().pub.params.k;
  const std::pair<MaliciousAction::Kind, std::string> stages[] = {
      {MaliciousAction::Kind::kTamperDuringReEnc, "reencryption"},
      {MaliciousAction::Kind::kTamperDuringShuffle, "shuffle"},
  };
  for (uint32_t s = 1; s <= k; s++) {
    for (const auto& [kind, stage] : stages) {
      MaliciousAction evil{kind, s, 4};
      auto hop =
          f.group.RunHop(batch, next_pks, Variant::kNizk, f.rng, 1, &evil);
      EXPECT_TRUE(hop.aborted);
      EXPECT_EQ(hop.abort_reason, stage + " proof rejected (server " +
                                      std::to_string(s) + ")");
    }
  }
}

TEST(GroupHop, NizkCatchesDuplication) {
  HopFixture f;
  auto batch = f.MakeBatch(4, 1);
  std::vector<Point> next_pks = {f.next_a.pk()};
  MaliciousAction evil{MaliciousAction::Kind::kDuplicateDuringShuffle, 1, 0};
  auto hop = f.group.RunHop(batch, next_pks, Variant::kNizk, f.rng, 1, &evil);
  EXPECT_TRUE(hop.aborted);
}

TEST(GroupHop, ExitLayerYieldsPlaintexts) {
  HopFixture f;
  auto batch = f.MakeBatch(4, 2);
  auto hop = f.group.RunHop(batch, {}, Variant::kTrap, f.rng);
  ASSERT_FALSE(hop.aborted);
  ASSERT_EQ(hop.batches.size(), 1u);
  auto points = ExitPlaintexts(hop.batches[0]);
  ASSERT_TRUE(points.has_value());
  std::set<std::string> seen;
  for (const auto& vec : *points) {
    for (const Point& p : vec) {
      auto bytes = ExtractMessage(p);
      ASSERT_TRUE(bytes.has_value());
      seen.insert(HexEncode(BytesView(*bytes)));
    }
  }
  EXPECT_EQ(seen.size(), 8u);
}

// -------------------------------------------------- many-trust / failures --

TEST(GroupHop, ToleratesOneFailureWithHTwo) {
  Rng rng(730u);
  DkgParams params{4, 3};  // k=4, threshold 3 => h=2
  GroupRuntime group(0, RunDkg(params, rng));
  GroupRuntime next(1, RunDkg(params, rng));

  group.MarkFailed(2);
  EXPECT_EQ(group.AliveCount(), 3u);

  CiphertextBatch batch(3);
  for (size_t i = 0; i < 3; i++) {
    Bytes payload = {static_cast<uint8_t>(i)};
    batch[i].push_back(
        ElGamalEncrypt(group.pk(), *EmbedMessage(BytesView(payload)), rng));
  }
  std::vector<Point> next_pks = {next.pk()};
  auto hop = group.RunHop(batch, next_pks, Variant::kTrap, rng);
  ASSERT_FALSE(hop.aborted) << hop.abort_reason;

  // Forwarded ciphertexts decrypt under the next group (all 4 of its
  // servers' shares).
  std::vector<Share> shares;
  for (const auto& key : next.dkg().keys) {
    shares.push_back(Share{key.index, key.share});
  }
  Scalar secret = *ShamirReconstruct(std::span(shares).subspan(0, 3), 3);
  for (const auto& vec : hop.batches[0]) {
    auto m = ElGamalDecrypt(secret, vec[0]);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(ExtractMessage(*m).has_value());
  }
}

TEST(GroupHop, TooManyFailuresAborts) {
  Rng rng(731u);
  DkgParams params{4, 3};
  GroupRuntime group(0, RunDkg(params, rng));
  group.MarkFailed(1);
  group.MarkFailed(3);
  CiphertextBatch batch(1);
  batch[0].push_back(ElGamalEncrypt(
      group.pk(), *EmbedMessage(BytesView(ToBytes("x"))), rng));
  auto hop = group.RunHop(batch, {}, Variant::kTrap, rng);
  EXPECT_TRUE(hop.aborted);
  EXPECT_NE(hop.abort_reason.find("too few"), std::string::npos);
}

TEST(GroupHop, BuddyRecoveryRestoresGroup) {
  Rng rng(732u);
  DkgParams params{4, 3};
  GroupRuntime group(0, RunDkg(params, rng));

  // Server 2 escrows its share with a 3-server buddy group before failing.
  auto escrow = EscrowShare(group.dkg().keys[1], 3, 2, rng);
  group.MarkFailed(2);
  group.MarkFailed(4);
  EXPECT_EQ(group.AliveCount(), 2u);  // below threshold now

  CiphertextBatch batch(1);
  batch[0].push_back(ElGamalEncrypt(
      group.pk(), *EmbedMessage(BytesView(ToBytes("y"))), rng));
  EXPECT_TRUE(group.RunHop(batch, {}, Variant::kTrap, rng).aborted);

  // Buddies reconstruct server 2's share; a replacement server joins.
  auto recovered = RecoverShare(
      group.dkg().pub, 2, std::span(escrow.sub_shares).subspan(0, 2), 2);
  ASSERT_TRUE(recovered.has_value());
  group.Restore(*recovered);
  EXPECT_EQ(group.AliveCount(), 3u);
  auto hop = group.RunHop(batch, {}, Variant::kTrap, rng);
  EXPECT_FALSE(hop.aborted) << hop.abort_reason;
}

// --------------------------------------------------------------- trustees --

TEST(TrusteesTest, ReleasesKeyOnlyWhenAllReportsClean) {
  Rng rng(735u);
  Trustees trustees(4, 3, rng);

  auto report = [](uint32_t gid, bool traps_ok, bool inner_ok,
                   uint64_t traps, uint64_t inner) {
    GroupReport r;
    r.gid = gid;
    r.traps_ok = traps_ok;
    r.inner_ok = inner_ok;
    r.num_traps = traps;
    r.num_inner = inner;
    return r;
  };

  // All clean and balanced: key released and correct.
  std::vector<GroupReport> clean = {report(0, true, true, 3, 2),
                                    report(1, true, true, 1, 2)};
  auto key = trustees.MaybeReleaseKey(clean);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Point::BaseMul(*key), trustees.round_pk());

  // One failed trap check: refused.
  std::vector<GroupReport> bad_trap = {report(0, false, true, 2, 2)};
  EXPECT_FALSE(trustees.MaybeReleaseKey(bad_trap).has_value());

  // One failed inner check: refused.
  std::vector<GroupReport> bad_inner = {report(0, true, false, 2, 2)};
  EXPECT_FALSE(trustees.MaybeReleaseKey(bad_inner).has_value());

  // Global count imbalance (a dropped message): refused.
  std::vector<GroupReport> imbalance = {report(0, true, true, 2, 1),
                                        report(1, true, true, 2, 2)};
  EXPECT_FALSE(trustees.MaybeReleaseKey(imbalance).has_value());
}

TEST(TrusteesTest, ReleasedKeyDecryptsInnerCiphertexts) {
  Rng rng(736u);
  Trustees trustees(3, 3, rng);
  Bytes msg = ToBytes("sealed until all clear");
  Bytes inner = KemEncrypt(trustees.round_pk(), BytesView(msg), rng);

  std::vector<GroupReport> clean = {GroupReport{0, true, true, 1, 1}};
  auto key = trustees.MaybeReleaseKey(clean);
  ASSERT_TRUE(key.has_value());
  auto dec = KemDecrypt(*key, BytesView(inner));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, msg);
}

// ------------------------------------------------------------ full round --

RoundConfig SmallConfig(Variant variant, size_t message_len = 48) {
  RoundConfig config;
  config.params.variant = variant;
  config.params.num_servers = 6;
  config.params.num_groups = 4;
  config.params.group_size = 3;
  config.params.honest_needed = 1;
  config.params.iterations = 3;
  config.params.message_len = message_len;
  config.beacon = ToBytes("test-beacon");
  return config;
}

TEST(FullRound, NizkVariantDeliversAllMessages) {
  Rng rng(740u);
  Round round(SmallConfig(Variant::kNizk), rng);

  std::set<std::string> sent;
  for (uint32_t u = 0; u < 8; u++) {
    uint32_t gid = u % round.NumGroups();
    Bytes msg = ToBytes("nizk message #" + std::to_string(u));
    sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 48))));
    auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitNizk(sub));
  }

  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  ASSERT_EQ(result.plaintexts.size(), 8u);
  std::set<std::string> got;
  for (const auto& p : result.plaintexts) {
    got.insert(HexEncode(BytesView(p)));
  }
  EXPECT_EQ(got, sent);
}

TEST(FullRound, TrapVariantDeliversAllMessages) {
  Rng rng(741u);
  Round round(SmallConfig(Variant::kTrap), rng);

  std::set<std::string> sent;
  for (uint32_t u = 0; u < 8; u++) {
    uint32_t gid = u % round.NumGroups();
    Bytes msg = ToBytes("trap message #" + std::to_string(u));
    sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 48))));
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(msg), round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }

  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.traps_seen, 8u);
  EXPECT_EQ(result.inner_seen, 8u);
  ASSERT_EQ(result.plaintexts.size(), 8u);
  std::set<std::string> got;
  for (const auto& p : result.plaintexts) {
    got.insert(HexEncode(BytesView(p)));
  }
  EXPECT_EQ(got, sent);
}

TEST(FullRound, TrapRoundRunsAgainAfterResubmission) {
  // A completed run consumes the submissions AND their trap commitments;
  // a fresh submit + Run cycle on the same Round (same keys, same epoch)
  // must succeed without the first run's commitments haunting the check.
  Rng rng(749u);
  Round round(SmallConfig(Variant::kTrap), rng);
  for (int run = 0; run < 2; run++) {
    for (uint32_t u = 0; u < 4; u++) {
      uint32_t gid = u % round.NumGroups();
      auto sub = MakeTrapSubmission(
          round.EntryPk(gid), gid, round.TrusteePk(),
          BytesView(ToBytes("run" + std::to_string(run))), round.layout(),
          rng);
      ASSERT_TRUE(round.SubmitTrap(sub));
    }
    auto result = round.Run(rng);
    ASSERT_FALSE(result.aborted) << "run " << run << ": "
                                 << result.abort_reason;
    EXPECT_EQ(result.plaintexts.size(), 4u) << "run " << run;
    EXPECT_EQ(result.traps_seen, 4u) << "run " << run;
  }
}

TEST(FullRound, TrapRoundRunsAgainAfterAnAbortedRun) {
  // Aborted runs drain the Round's submission state just like completed
  // ones, so a fresh honest batch after a disrupted round must succeed.
  Rng rng(754u);
  Round round(SmallConfig(Variant::kTrap), rng);
  for (uint32_t u = 0; u < 8; u++) {
    uint32_t gid = u % round.NumGroups();
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("doomed")),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  Round::Evil evil{0, 1,
                   {MaliciousAction::Kind::kDuplicateDuringShuffle, 1, 1}};
  ASSERT_TRUE(round.Run(rng, &evil).aborted);

  for (uint32_t u = 0; u < 4; u++) {
    uint32_t gid = u % round.NumGroups();
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("fresh")),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), 4u);
}

TEST(FullRound, NizkVariantAbortsOnMaliciousServer) {
  Rng rng(742u);
  Round round(SmallConfig(Variant::kNizk), rng);
  // 16 users = 4 per entry group, so every group holds messages at every
  // layer (4 messages split 4 ways forwards one to each neighbour).
  for (uint32_t u = 0; u < 16; u++) {
    uint32_t gid = u % round.NumGroups();
    auto sub = MakeNizkSubmission(round.EntryPk(gid), gid,
                                  BytesView(ToBytes("m")), round.layout(),
                                  rng);
    ASSERT_TRUE(round.SubmitNizk(sub));
  }
  Round::Evil evil{1, 2, {MaliciousAction::Kind::kTamperDuringShuffle, 2, 0}};
  auto result = round.Run(rng, &evil);
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("group 2"), std::string::npos);
}

TEST(FullRound, TrapVariantAbortsOnDuplication) {
  // Duplicating any ciphertext always trips a check at exit: a duplicated
  // trap double-spends its commitment, a duplicated message is a duplicate
  // inner ciphertext, and the overwritten victim goes missing.
  Rng rng(743u);
  Round round(SmallConfig(Variant::kTrap), rng);
  for (uint32_t u = 0; u < 8; u++) {
    uint32_t gid = u % round.NumGroups();
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("m")), round.layout(),
                                  rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  Round::Evil evil{0, 1,
                   {MaliciousAction::Kind::kDuplicateDuringShuffle, 1, 1}};
  auto result = round.Run(rng, &evil);
  EXPECT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("trustees refused"), std::string::npos);
}

TEST(FullRound, TrapTamperingEitherAbortsOrLosesExactlyOne) {
  // Mauling one ciphertext hits a trap (abort, probability ~1/2) or a real
  // message (that message is lost, everyone else unaffected) — the paper's
  // §4.4 security accounting. Either way no plaintext is ever *altered*.
  Rng rng(744u);
  int aborts = 0, losses = 0;
  for (int trial = 0; trial < 4; trial++) {
    Round round(SmallConfig(Variant::kTrap), rng);
    std::set<std::string> sent;
    for (uint32_t u = 0; u < 6; u++) {
      uint32_t gid = u % round.NumGroups();
      Bytes msg = ToBytes("t" + std::to_string(trial) + "u" +
                          std::to_string(u));
      sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 48))));
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid,
                                    round.TrusteePk(), BytesView(msg),
                                    round.layout(), rng);
      ASSERT_TRUE(round.SubmitTrap(sub));
    }
    Round::Evil evil{
        1, 0, {MaliciousAction::Kind::kTamperDuringReEnc, 2,
               static_cast<size_t>(trial)}};
    auto result = round.Run(rng, &evil);
    if (result.aborted) {
      aborts++;
    } else {
      losses++;
      EXPECT_EQ(result.plaintexts.size(), 5u);
      for (const auto& p : result.plaintexts) {
        EXPECT_TRUE(sent.contains(HexEncode(BytesView(p))))
            << "an altered plaintext leaked through";
      }
    }
  }
  EXPECT_EQ(aborts + losses, 4);
}

TEST(FullRound, SurvivesServerFailureWithManyTrust) {
  Rng rng(745u);
  RoundConfig config = SmallConfig(Variant::kTrap);
  config.params.honest_needed = 2;  // threshold 2 of 3: tolerate 1 failure
  Round round(config, rng);
  for (uint32_t u = 0; u < 4; u++) {
    uint32_t gid = u % round.NumGroups();
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("failover")),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  round.group(1).MarkFailed(2);
  round.group(3).MarkFailed(1);
  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), 4u);
}

TEST(FullRound, BuddyEscrowRecoversCatastrophicFailure) {
  // §4.5 end to end at round level: group 2 loses two servers (beyond the
  // h-1 = 0 tolerance at h=1... use h=2 config so threshold is 2 of 3),
  // then buddy escrow restores them and the round completes.
  Rng rng(747u);
  RoundConfig config = SmallConfig(Variant::kTrap);
  config.params.group_size = 3;
  config.params.honest_needed = 2;  // threshold 2: tolerate 1 failure
  Round round(config, rng);
  round.EscrowAllShares(rng);

  for (uint32_t u = 0; u < 4; u++) {
    uint32_t gid = u % round.NumGroups();
    auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                  BytesView(ToBytes("survive")),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }

  // Two failures in group 2: beyond tolerance (only 1 alive < threshold 2).
  round.group(2).MarkFailed(1);
  round.group(2).MarkFailed(3);
  EXPECT_EQ(round.group(2).AliveCount(), 1u);

  // Recovery through the round-managed escrow.
  ASSERT_TRUE(round.RecoverServer(2, 1));
  EXPECT_EQ(round.group(2).AliveCount(), 2u);

  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), 4u);
}

TEST(FullRound, RecoverServerFailsWithoutEscrow) {
  Rng rng(748u);
  Round round(SmallConfig(Variant::kTrap), rng);
  EXPECT_FALSE(round.RecoverServer(0, 1));  // EscrowAllShares never called
}

TEST(FullRound, RejectsInvalidSubmission) {
  Rng rng(746u);
  Round round(SmallConfig(Variant::kTrap), rng);
  auto sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                BytesView(ToBytes("ok")), round.layout(),
                                rng);
  // Replay the same submission at another group: gid binding must reject.
  auto replay = sub;
  replay.entry_gid = 1;
  EXPECT_FALSE(round.SubmitTrap(replay));
  // Proof/ciphertext mismatch must reject.
  auto mangled = sub;
  mangled.first[0].c = mangled.first[0].c + Point::Generator();
  EXPECT_FALSE(round.SubmitTrap(mangled));
  EXPECT_TRUE(round.SubmitTrap(sub));
}

// ---------------------------------------------------------------- intake --

TEST(Intake, ConcurrentShardedSubmissionLosesNothing) {
  // Many client threads hammer every entry group at once; the sharded
  // intake must accept each valid submission exactly once — no losses, no
  // double counts — and the round must deliver exactly the submitted set.
  // (The TSan CI job gates the locking discipline here.)
  Rng rng(760u);
  Round round(SmallConfig(Variant::kNizk, 32), rng);

  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 6;
  constexpr size_t kTotal = kThreads * kPerThread;
  std::vector<NizkSubmission> subs;
  std::set<std::string> sent;
  for (size_t i = 0; i < kTotal; i++) {
    uint32_t gid = static_cast<uint32_t>(i % round.NumGroups());
    Bytes msg = ToBytes("concurrent #" + std::to_string(i));
    sent.insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
    auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                  round.layout(), rng);
    sub.client_id = i + 1;
    subs.push_back(std::move(sub));
  }

  std::atomic<size_t> accepted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Interleaved slices: every thread touches every entry group.
      for (size_t i = t; i < kTotal; i += kThreads) {
        if (round.SubmitNizk(subs[i])) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(accepted.load(), kTotal);

  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  std::set<std::string> got;
  for (const auto& p : result.plaintexts) {
    got.insert(HexEncode(BytesView(p)));
  }
  EXPECT_EQ(result.plaintexts.size(), kTotal);  // set equality + size ==
  EXPECT_EQ(got, sent);                         // no duplicates hidden
}

TEST(Intake, ConcurrentDuplicateClientIdAcceptedExactlyOnce) {
  // Racing submissions that share one client id: exactly one thread wins,
  // every other gets false — never zero, never two.
  Rng rng(761u);
  Round round(SmallConfig(Variant::kNizk, 32), rng);

  constexpr size_t kThreads = 4;
  std::vector<NizkSubmission> subs;
  for (size_t i = 0; i < kThreads; i++) {
    auto sub = MakeNizkSubmission(round.EntryPk(0), 0,
                                  BytesView(ToBytes("race " +
                                                    std::to_string(i))),
                                  round.layout(), rng);
    sub.client_id = 42;
    subs.push_back(std::move(sub));
  }
  std::atomic<size_t> accepted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      if (round.SubmitNizk(subs[t])) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(accepted.load(), 1u);
}

TEST(Intake, RejectsDuplicateClientIdWithinAnEngineRound) {
  // Regression: a second submission with the same client id used to be
  // silently double-counted (and poisoned the exit checks); now it must
  // return false, while anonymous submissions stay exempt and a drained
  // epoch resets the book.
  Rng rng(762u);
  Round round(SmallConfig(Variant::kTrap), rng);
  auto make = [&](uint64_t client_id, const char* msg) {
    auto sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                  BytesView(ToBytes(msg)), round.layout(),
                                  rng);
    sub.client_id = client_id;
    return sub;
  };

  EXPECT_TRUE(round.SubmitTrap(make(7, "first")));
  // Same client id, fresh (valid) ciphertexts: rejected, not double-counted.
  EXPECT_FALSE(round.SubmitTrap(make(7, "second")));
  EXPECT_TRUE(round.SubmitTrap(make(8, "other client")));
  // Anonymous submissions opt out of the check.
  EXPECT_TRUE(round.SubmitTrap(make(kAnonymousClient, "anon one")));
  EXPECT_TRUE(round.SubmitTrap(make(kAnonymousClient, "anon two")));

  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), 4u);  // the rejected one never ran
  EXPECT_EQ(result.traps_seen, 4u);

  // A new engine round is a new book: client 7 may submit again.
  EXPECT_TRUE(round.SubmitTrap(make(7, "next round")));
}

TEST(Intake, BatchSubmitVerifiesOnThePoolAndFiltersInvalid) {
  Rng rng(763u);
  Round round(SmallConfig(Variant::kNizk, 32), rng);

  std::vector<NizkSubmission> subs;
  std::set<std::string> want;
  for (size_t i = 0; i < 8; i++) {
    uint32_t gid = static_cast<uint32_t>(i % round.NumGroups());
    Bytes msg = ToBytes("batch #" + std::to_string(i));
    auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                  round.layout(), rng);
    sub.client_id = 100 + i;
    if (i != 3 && i != 6) {
      want.insert(HexEncode(BytesView(PadTo(BytesView(msg), 32))));
    }
    subs.push_back(std::move(sub));
  }
  // #3: mangled ciphertext (proof mismatch). #6: duplicate client id of
  // #2 — same entry group (ids are scoped to the client's entry group).
  subs[3].ciphertext[0].c = subs[3].ciphertext[0].c + Point::Generator();
  subs[6].client_id = subs[2].client_id;

  auto accepted = round.SubmitNizkBatch(subs, /*workers=*/4);
  ASSERT_EQ(accepted.size(), subs.size());
  for (size_t i = 0; i < subs.size(); i++) {
    EXPECT_EQ(accepted[i], i != 3 && i != 6) << "submission " << i;
  }

  auto result = round.Run(rng);
  ASSERT_FALSE(result.aborted) << result.abort_reason;
  std::set<std::string> got;
  for (const auto& p : result.plaintexts) {
    got.insert(HexEncode(BytesView(p)));
  }
  EXPECT_EQ(got, want);
}

// ----------------------------------------------------------------- blame --

TEST(Blame, IdentifiesUserWithBogusCommitment) {
  Rng rng(750u);
  Round round(SmallConfig(Variant::kTrap), rng);
  // Three honest users and one who lies about the commitment (all into
  // entry group 0 so blame inspects one group).
  for (int u = 0; u < 3; u++) {
    auto sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                  BytesView(ToBytes("honest")),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  auto evil_sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                     BytesView(ToBytes("evil")),
                                     round.layout(), rng);
  evil_sub.trap_commitment[0] ^= 0xff;  // commitment matches nothing
  ASSERT_TRUE(round.SubmitTrap(evil_sub));

  // The round aborts (missing expected trap), and blame names user 3.
  auto result = round.Run(rng);
  EXPECT_TRUE(result.aborted);
  auto blame = round.BlameEntryGroup(0);
  ASSERT_EQ(blame.bad_users.size(), 1u);
  EXPECT_EQ(blame.bad_users[0], 3u);
}

TEST(Blame, IdentifiesDuplicateInnerCiphertexts) {
  Rng rng(751u);
  Round round(SmallConfig(Variant::kTrap), rng);
  auto honest = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                   BytesView(ToBytes("honest")),
                                   round.layout(), rng);
  ASSERT_TRUE(round.SubmitTrap(honest));

  // Two colluding users submit the same inner ciphertext (they can, since
  // they share plaintext and randomness out of band).
  auto layout = round.layout();
  Bytes inner = KemEncrypt(round.TrusteePk(),
                           BytesView(PadTo(BytesView(ToBytes("dup")),
                                           layout.plaintext_len)),
                           rng);
  for (int i = 0; i < 2; i++) {
    Bytes msg_plain = MakeMessagePlaintext(BytesView(inner), layout);
    Bytes nonce = rng.NextBytes(kTrapNonceLen);
    Bytes trap_plain = MakeTrapPlaintext(0, BytesView(nonce), layout);

    TrapSubmission sub;
    sub.entry_gid = 0;
    sub.trap_commitment = CommitTrap(BytesView(trap_plain));
    std::vector<Scalar> r1, r2;
    sub.first = ElGamalEncryptVec(
        round.EntryPk(0), FragmentToPoints(BytesView(msg_plain), layout), rng,
        &r1);
    sub.first_proofs = MakeEncProofVec(round.EntryPk(0), 0, sub.first, r1,
                                       rng);
    sub.second = ElGamalEncryptVec(
        round.EntryPk(0), FragmentToPoints(BytesView(trap_plain), layout),
        rng, &r2);
    sub.second_proofs = MakeEncProofVec(round.EntryPk(0), 0, sub.second, r2,
                                        rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }

  auto result = round.Run(rng);
  EXPECT_TRUE(result.aborted);  // duplicate inner ciphertexts detected
  auto blame = round.BlameEntryGroup(0);
  EXPECT_EQ(blame.bad_users, (std::vector<size_t>{1, 2}));
}

TEST(Blame, SecondRunBlamesOnlyItsOwnSubmissions) {
  // Run 1 completes cleanly; run 2 contains one cheater. Blame indices
  // must refer to run 2's submission order, not a list polluted by run 1.
  Rng rng(753u);
  Round round(SmallConfig(Variant::kTrap), rng);
  for (int u = 0; u < 3; u++) {
    auto sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                  BytesView(ToBytes("round-one")),
                                  round.layout(), rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  ASSERT_FALSE(round.Run(rng).aborted);

  auto honest = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                   BytesView(ToBytes("round-two")),
                                   round.layout(), rng);
  ASSERT_TRUE(round.SubmitTrap(honest));
  auto evil_sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                     BytesView(ToBytes("round-two-evil")),
                                     round.layout(), rng);
  evil_sub.trap_commitment[0] ^= 0xff;
  ASSERT_TRUE(round.SubmitTrap(evil_sub));

  auto result = round.Run(rng);
  EXPECT_TRUE(result.aborted);
  auto blame = round.BlameEntryGroup(0);
  ASSERT_EQ(blame.bad_users.size(), 1u);
  EXPECT_EQ(blame.bad_users[0], 1u);  // index within run 2, not 4
}

TEST(Blame, HonestUsersAreNotBlamed) {
  Rng rng(752u);
  Round round(SmallConfig(Variant::kTrap), rng);
  for (int u = 0; u < 4; u++) {
    auto sub = MakeTrapSubmission(round.EntryPk(0), 0, round.TrusteePk(),
                                  BytesView(ToBytes("fine")), round.layout(),
                                  rng);
    ASSERT_TRUE(round.SubmitTrap(sub));
  }
  auto blame = round.BlameEntryGroup(0);
  EXPECT_TRUE(blame.bad_users.empty());
}

}  // namespace
}  // namespace atom
