// Seeded golden rounds, shared by every executor that must reproduce the
// digests checked in under tests/golden/round_digests.txt: the in-process
// RoundEngine (tests/golden_round_test.cpp), the TCP mesh fleet and the
// client gateway (tests/net_test.cpp).
//
// Each digest covers everything a seeded round makes observable: the group
// and trustee public keys the DKGs produced, the wire encoding of every
// submission, and the RoundResult (abort state and reason, plaintexts in
// exit order, trap accounting). A change that alters any point encoding,
// Rng draw, shuffle permutation or exit order moves a digest, so a
// refactor that claims byte-identical behaviour proves it by leaving the
// file untouched.
#ifndef TESTS_GOLDEN_ROUND_H_
#define TESTS_GOLDEN_ROUND_H_

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

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

namespace atom::golden {

// What goes wrong in a case, if anything.
enum class Fault {
  kNone,
  kEvilServer,    // one server tampers mid-network (Round::Evil)
  kCheatingUser,  // user 0's trap commitment matches nothing (trap only)
};

struct Case {
  Variant variant;
  TopologyKind topology;
  const char* name;
  Fault fault = Fault::kNone;
};

inline constexpr size_t kUsers = 8;

inline const Case kHonestCases[] = {
    {Variant::kTrap, TopologyKind::kSquare, "TrapSquare"},
    {Variant::kTrap, TopologyKind::kButterfly, "TrapButterfly"},
    {Variant::kNizk, TopologyKind::kSquare, "NizkSquare"},
    {Variant::kNizk, TopologyKind::kButterfly, "NizkButterfly"},
};

inline const Case kAbortCases[] = {
    {Variant::kTrap, TopologyKind::kSquare, "TrapEvilServer",
     Fault::kEvilServer},
    {Variant::kNizk, TopologyKind::kSquare, "NizkEvilServer",
     Fault::kEvilServer},
    {Variant::kTrap, TopologyKind::kSquare, "TrapCheatingUser",
     Fault::kCheatingUser},
};

inline void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

inline std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

inline std::map<std::string, std::string> LoadDigests() {
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

// Compares `digest` with the recorded line `name`. With ATOM_GOLDEN_PRINT
// set, prints the line first, for recording a deliberate behaviour change.
inline void ExpectRecorded(const std::string& name, const std::string& digest) {
  if (std::getenv("ATOM_GOLDEN_PRINT") != nullptr) {
    std::printf("%s %s\n", name.c_str(), digest.c_str());
  }
  auto golden = LoadDigests();
  auto it = golden.find(name);
  ASSERT_NE(it, golden.end()) << "no golden digest for " << name;
  EXPECT_EQ(digest, it->second) << "round output changed: " << name << " "
                                << digest;
}

inline RoundConfig Config(const Case& c) {
  RoundConfig config;
  config.params.variant = c.variant;
  config.params.topology = c.topology;
  config.params.num_servers = 6;
  config.params.num_groups = 4;
  config.params.group_size = 3;
  config.params.iterations = c.topology == TopologyKind::kSquare ? 3 : 2;
  config.params.message_len = 32;
  config.beacon = ToBytes(std::string("golden-") + c.name);
  return config;
}

inline std::vector<Round::Evil> Evils(const Case& c) {
  if (c.fault != Fault::kEvilServer) {
    return {};
  }
  if (c.variant == Variant::kNizk) {
    // Caught by the shuffle proof at the tampered hop.
    return {Round::Evil{
        1, 0, {MaliciousAction::Kind::kTamperDuringShuffle, 2, 0}}};
  }
  // Invisible to the trap variant until the exit trap check.
  return {Round::Evil{
      0, 1, {MaliciousAction::Kind::kDuplicateDuringShuffle, 1, 1}}};
}

// In-process intake: the default way a submission enters a golden round.
inline bool SubmitInProcess(Round& round, const TrapSubmission& sub) {
  return round.SubmitTrap(sub);
}
inline bool SubmitInProcess(Round& round, const NizkSubmission& sub) {
  return round.SubmitNizk(sub);
}

// The in-process executor: one RoundEngine runs mixing and the exit.
inline RoundResult RunInEngine(Round& round, std::span<const Round::Evil> evils,
                               Rng& rng) {
  RoundEngine engine(&ThreadPool::Shared());
  return engine.RunToCompletion(round.TakeEngineRound(evils, rng)).round;
}

// Runs case `c` and returns its digest. `submit(round, user, sub)` hands
// each submission (a TrapSubmission or NizkSubmission, by variant) to the
// round's intake in user order and returns whether it was accepted;
// `run(round, evils, rng)` drains the intake into one round, executes it
// and returns its result. A nonzero `first_client_id` stamps user u's
// submission with client id first_client_id + u (registered clients);
// zero leaves every submission anonymous.
template <typename Submit, typename Run>
std::string RoundDigest(const Case& c, Submit&& submit, Run&& run,
                        uint64_t first_client_id = kAnonymousClient) {
  Rng rng(uint64_t{0x601de4});
  Round round(Config(c), rng);

  ByteWriter w;
  for (uint32_t gid = 0; gid < round.NumGroups(); gid++) {
    w.Raw(BytesView(round.EntryPk(gid).Encode()));
  }
  if (c.variant == Variant::kTrap) {
    w.Raw(BytesView(round.TrusteePk().Encode()));
  }

  for (size_t u = 0; u < kUsers; u++) {
    uint32_t gid = static_cast<uint32_t>(u % round.NumGroups());
    Bytes msg = ToBytes("golden message " + std::to_string(u));
    uint64_t client_id =
        first_client_id == kAnonymousClient ? kAnonymousClient
                                            : first_client_id + u;
    if (c.variant == Variant::kTrap) {
      auto sub = MakeTrapSubmission(round.EntryPk(gid), gid, round.TrusteePk(),
                                    BytesView(msg), round.layout(), rng);
      sub.client_id = client_id;
      if (c.fault == Fault::kCheatingUser && u == 0) {
        sub.trap_commitment[0] ^= 0xff;  // commitment matches nothing
      }
      w.Var(BytesView(EncodeTrapSubmission(sub)));
      EXPECT_TRUE(submit(round, u, sub)) << "user " << u;
    } else {
      auto sub = MakeNizkSubmission(round.EntryPk(gid), gid, BytesView(msg),
                                    round.layout(), rng);
      sub.client_id = client_id;
      w.Var(BytesView(EncodeNizkSubmission(sub)));
      EXPECT_TRUE(submit(round, u, sub)) << "user " << u;
    }
  }

  const std::vector<Round::Evil> evils = Evils(c);
  RoundResult result = run(round, std::span<const Round::Evil>(evils), rng);
  if (c.fault == Fault::kNone) {
    EXPECT_FALSE(result.aborted) << result.abort_reason;
    EXPECT_EQ(result.plaintexts.size(), kUsers);
  } else {
    EXPECT_TRUE(result.aborted) << c.name << " completed";
  }

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

// The in-process round: in-process intake, RoundEngine executor.
inline std::string InProcessDigest(const Case& c) {
  return RoundDigest(
      c,
      [](Round& round, size_t, const auto& sub) {
        return SubmitInProcess(round, sub);
      },
      RunInEngine);
}

}  // namespace atom::golden

#endif  // TESTS_GOLDEN_ROUND_H_
