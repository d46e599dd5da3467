// Golden round digests: seeded in-process rounds must reproduce the SHA-256
// digests checked in under tests/golden/round_digests.txt, byte for byte
// (see tests/golden_round.h for what a digest covers). The honest cases
// pin mixing and the exit; the abort cases pin the abort reason and what an
// aborted round releases (nothing) for a tampering server in each variant
// and for a user whose trap commitment matches nothing.
//
// To record new digests after a deliberate behaviour change, run with
// ATOM_GOLDEN_PRINT=1 and paste the printed lines into the file.
#include "tests/golden_round.h"

#include <gtest/gtest.h>

namespace atom {
namespace {

using golden::Case;

class GoldenRound : public ::testing::TestWithParam<Case> {};

TEST_P(GoldenRound, MatchesRecordedDigest) {
  const Case& c = GetParam();
  golden::ExpectRecorded(c.name, golden::InProcessDigest(c));
}

INSTANTIATE_TEST_SUITE_P(Seeded, GoldenRound,
                         ::testing::ValuesIn(golden::kHonestCases),
                         golden::CaseName);

INSTANTIATE_TEST_SUITE_P(Aborts, GoldenRound,
                         ::testing::ValuesIn(golden::kAbortCases),
                         golden::CaseName);

}  // namespace
}  // namespace atom
