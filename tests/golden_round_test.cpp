// Golden round digests: seeded in-process rounds must reproduce the SHA-256
// digests checked in under tests/golden/round_digests.txt, byte for byte.
//
// Each digest covers everything a seeded round makes observable: the group
// and trustee public keys the DKGs produced, the wire encoding of every
// submission, and the engine-native RoundResult (abort state, plaintexts in
// exit order, trap accounting). A change that alters any point encoding,
// Rng draw, shuffle permutation or exit order moves a digest, so a refactor
// that claims byte-identical behaviour (a new field implementation, a
// different executor) proves it by leaving this file untouched.
//
// To record new digests after a deliberate behaviour change, run with
// ATOM_GOLDEN_PRINT=1 and paste the printed lines into the file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/core/engine.h"
#include "src/core/round.h"
#include "src/core/wire.h"
#include "src/crypto/sha256.h"
#include "src/util/hex.h"
#include "src/util/rng.h"
#include "src/util/serde.h"

#ifndef ATOM_GOLDEN_DIR
#error "ATOM_GOLDEN_DIR must name tests/golden (set by CMakeLists.txt)"
#endif

namespace atom {
namespace {

struct GoldenCase {
  Variant variant;
  TopologyKind topology;
  const char* name;
};

std::map<std::string, std::string> LoadGolden() {
  std::map<std::string, std::string> out;
  std::ifstream in(std::string(ATOM_GOLDEN_DIR) + "/round_digests.txt");
  EXPECT_TRUE(in.good()) << "missing " ATOM_GOLDEN_DIR "/round_digests.txt";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name, digest;
    fields >> name >> digest;
    out[name] = digest;
  }
  return out;
}

std::string RoundDigest(const GoldenCase& c) {
  RoundConfig config;
  config.params.variant = c.variant;
  config.params.topology = c.topology;
  config.params.num_servers = 6;
  config.params.num_groups = 4;
  config.params.group_size = 3;
  config.params.iterations = c.topology == TopologyKind::kSquare ? 3 : 2;
  config.params.message_len = 32;
  config.beacon = ToBytes(std::string("golden-") + c.name);

  Rng rng(uint64_t{0x601de4});
  Round round(config, rng);

  ByteWriter w;
  for (uint32_t gid = 0; gid < round.NumGroups(); gid++) {
    w.Raw(BytesView(round.EntryPk(gid).Encode()));
  }
  if (c.variant == Variant::kTrap) {
    w.Raw(BytesView(round.TrusteePk().Encode()));
  }

  constexpr size_t kUsers = 8;
  for (size_t u = 0; u < kUsers; u++) {
    uint32_t gid = static_cast<uint32_t>(u % round.NumGroups());
    Bytes msg = ToBytes("golden message " + std::to_string(u));
    if (c.variant == Variant::kTrap) {
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                    BytesView(msg), round.layout(), rng);
      w.Var(BytesView(EncodeTrapSubmission(sub)));
      EXPECT_TRUE(round.SubmitTrap(sub));
    } else {
      auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                    round.layout(), rng);
      w.Var(BytesView(EncodeNizkSubmission(sub)));
      EXPECT_TRUE(round.SubmitNizk(sub));
    }
  }

  RoundEngine engine(&ThreadPool::Shared());
  RoundResult result = engine.RunToCompletion(round.TakeEngineRound({}, rng))
                           .round;
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.plaintexts.size(), kUsers);

  w.U8(result.aborted ? 1 : 0);
  w.Var(BytesView(ToBytes(result.abort_reason)));
  w.U32(static_cast<uint32_t>(result.plaintexts.size()));
  for (const Bytes& p : result.plaintexts) {
    w.Var(BytesView(p));
  }
  w.U64(result.traps_seen);
  w.U64(result.inner_seen);
  auto digest = Sha256::Hash(BytesView(w.bytes()));
  return HexEncode(BytesView(digest.data(), digest.size()));
}

class GoldenRound : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRound, MatchesRecordedDigest) {
  const GoldenCase& c = GetParam();
  std::string got = RoundDigest(c);
  if (std::getenv("ATOM_GOLDEN_PRINT") != nullptr) {
    std::printf("%s %s\n", c.name, got.c_str());
  }
  auto golden = LoadGolden();
  auto it = golden.find(c.name);
  ASSERT_NE(it, golden.end()) << "no golden digest for " << c.name;
  EXPECT_EQ(got, it->second) << "round output changed: " << c.name << " "
                             << got;
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, GoldenRound,
    ::testing::Values(
        GoldenCase{Variant::kTrap, TopologyKind::kSquare, "TrapSquare"},
        GoldenCase{Variant::kTrap, TopologyKind::kButterfly, "TrapButterfly"},
        GoldenCase{Variant::kNizk, TopologyKind::kSquare, "NizkSquare"},
        GoldenCase{Variant::kNizk, TopologyKind::kButterfly,
                   "NizkButterfly"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace atom
