// Cross-checks the dedicated P-256 coordinate field (src/crypto/fp256.h)
// against the generic Montgomery field over the same prime, which serves
// as the oracle: both must agree bit for bit on every operation, because
// point coordinates, encodings and transcripts are computed from these
// exact limbs. The lane kernel's 8-lane IFMA field (src/crypto/lanes_ifma.cpp)
// is checked against fp256 the same way, lane by lane, where the CPU has it.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/crypto/fp256.h"
#include "src/crypto/lanes.h"
#include "src/crypto/mont.h"
#include "src/util/rng.h"

namespace atom {
namespace {

const Mont& Oracle() {
  static const Mont field(P256Prime());
  return field;
}

U256 PMinus(uint64_t k) {
  U256 out;
  U256Sub(&out, fp256::kP, U256::FromU64(k));
  return out;
}

// A reduced operand. Half the draws are uniform; the other half build each
// limb from carry-heavy patterns (all ones, zero, p's half-limbs) so the
// add/sub/reduction chains see long carry runs that uniform limbs rarely
// produce.
U256 RandomElement(Rng& rng) {
  static constexpr uint64_t kPatterns[] = {
      0, ~uint64_t{0}, 0xffffffff00000000ULL, 0x00000000ffffffffULL,
      0xffffffff00000001ULL, 1};
  U256 v;
  const bool structured = (rng.NextU64() & 1) != 0;
  for (uint64_t& limb : v.v) {
    limb = structured && (rng.NextU64() & 1) != 0
               ? kPatterns[rng.NextBelow(std::size(kPatterns))]
               : rng.NextU64();
  }
  return Oracle().Reduce(v);
}

// Operands at the edges of the representation: 0, 1, p-1, p-2, values
// next to 2^255 and 2^256 - 2^224, R mod p and its negation, and limbs
// that saturate p's nonzero limbs.
std::vector<U256> EdgeElements() {
  std::vector<U256> out = {
      U256::Zero(),
      U256::FromU64(1),
      U256::FromU64(2),
      U256::FromU64(3),
      PMinus(1),
      PMinus(2),
      PMinus(3),
      fp256::kOne,
      fp256::Neg(fp256::kOne),
      U256::FromLimbs(0, 0, 0, 0x8000000000000000ULL),
      U256::FromLimbs(~0ULL, ~0ULL, ~0ULL, 0x7fffffffffffffffULL),
      U256::FromLimbs(0, 0, 0, 0xffffffff00000000ULL),
      U256::FromLimbs(~0ULL, ~0ULL, ~0ULL, 0xffffffff00000000ULL),
      U256::FromLimbs(~0ULL, 0, 0, 0),
      U256::FromLimbs(0, ~0ULL, ~0ULL, 0),
  };
  for (const U256& v : out) {
    EXPECT_TRUE(U256Less(v, fp256::kP));
  }
  return out;
}

void ExpectPairMatches(const U256& a, const U256& b) {
  const Mont& o = Oracle();
  ASSERT_EQ(fp256::Mul(a, b), o.Mul(a, b));
  ASSERT_EQ(fp256::Add(a, b), o.Add(a, b));
  ASSERT_EQ(fp256::Sub(a, b), o.Sub(a, b));
}

void ExpectUnaryMatches(const U256& a) {
  const Mont& o = Oracle();
  ASSERT_EQ(fp256::Sqr(a), o.Mul(a, a));
  ASSERT_EQ(fp256::Neg(a), o.Neg(a));
  ASSERT_EQ(fp256::ToMont(a), o.ToMont(a));
  ASSERT_EQ(fp256::FromMont(a), o.FromMont(a));
}

TEST(FieldP256, ConstantsMatchOracle) {
  EXPECT_EQ(fp256::kP, P256Prime());
  EXPECT_EQ(fp256::kOne, Oracle().one());
  EXPECT_EQ(fp256::kR2, Oracle().ToMont(Oracle().one()));
  EXPECT_EQ(fp256::ToMont(U256::FromU64(1)), fp256::kOne);
  EXPECT_EQ(fp256::FromMont(fp256::kOne), U256::FromU64(1));
}

TEST(FieldP256, RandomPairsMatchOracle) {
  Rng rng(uint64_t{0xf1e1d256});
  constexpr int kPairs = 100000;
  for (int i = 0; i < kPairs; i++) {
    U256 a = RandomElement(rng);
    U256 b = RandomElement(rng);
    ExpectPairMatches(a, b);
    ExpectUnaryMatches(a);
  }
}

TEST(FieldP256, EdgeOperandsMatchOracle) {
  auto edges = EdgeElements();
  for (const U256& a : edges) {
    ExpectUnaryMatches(a);
    for (const U256& b : edges) {
      ExpectPairMatches(a, b);
    }
  }
}

TEST(FieldP256, AddCoversEveryReductionOutcome) {
  // a + b for reduced a, b lands in one of three places, each taking a
  // different path through the carry chain and the final selection:
  // below p (keep), in [p, 2^256) (subtract, no carry out of the top limb),
  // or at/above 2^256 (carry out, then subtract).
  const U256 one = U256::FromU64(1);
  U256 one_minus_one_mont;  // (p - 1) + R = 2^256 - 1 = (R - 1) + p
  U256Sub(&one_minus_one_mont, fp256::kOne, one);
  struct Case {
    U256 a, b, sum;
    bool carry, subtract;
  } cases[] = {
      {one, one, U256::FromU64(2), false, false},
      {PMinus(1), one, U256::Zero(), false, true},  // exactly p
      {PMinus(1), fp256::kOne, one_minus_one_mont, false, true},
      {PMinus(1), PMinus(1), PMinus(2), true, true},
      {PMinus(1), PMinus(2), PMinus(3), true, true},
  };
  for (const Case& c : cases) {
    U256 raw;
    EXPECT_EQ(U256Add(&raw, c.a, c.b) != 0, c.carry);
    EXPECT_EQ(c.carry || !U256Less(raw, fp256::kP), c.subtract);
    EXPECT_EQ(fp256::Add(c.a, c.b), c.sum);
    EXPECT_EQ(fp256::Add(c.a, c.b), Oracle().Add(c.a, c.b));
  }
}

TEST(FieldP256, FinalSubtractionSelectsBothWays) {
  // The reduction's last step directly: r = top * 2^256 + limbs < 2p.
  using fp256::internal::CondSubP;
  const U256& p = fp256::kP;
  auto reduce = [](const U256& r, uint64_t top) {
    return CondSubP(r.v[0], r.v[1], r.v[2], r.v[3], top);
  };
  EXPECT_EQ(reduce(U256::Zero(), 0), U256::Zero());
  EXPECT_EQ(reduce(PMinus(1), 0), PMinus(1));  // keep
  EXPECT_EQ(reduce(p, 0), U256::Zero());       // subtract, no carry
  U256 max = U256::FromLimbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  U256 max_minus_p;
  U256Sub(&max_minus_p, max, p);
  EXPECT_EQ(reduce(max, 0), max_minus_p);
  // 2p - 1 = 2^256 + (p - 1 - (2^256 - p)): the carry bit is set.
  U256 low;
  U256Add(&low, p, PMinus(1));
  EXPECT_EQ(reduce(low, 1), PMinus(1));
  // 2^256 exactly: limbs all zero, carry set.
  U256 r_mod_p;
  U256Sub(&r_mod_p, U256::Zero(), p);
  EXPECT_EQ(reduce(U256::Zero(), 1), r_mod_p);
}

TEST(FieldP256, InverseMatchesOracle) {
  Rng rng(uint64_t{0x1a2b});
  std::vector<U256> values = EdgeElements();
  for (int i = 0; i < 2000; i++) {
    values.push_back(RandomElement(rng));
  }
  for (const U256& v : values) {
    if (v.IsZero()) {
      continue;
    }
    U256 inv = fp256::Inv(v);
    ASSERT_EQ(inv, Oracle().Inv(v));
    ASSERT_EQ(fp256::Mul(v, inv), fp256::kOne);
  }
}

TEST(FieldP256, SqrtMatchesOracleIncludingNonResidues) {
  U256 exp;  // (p + 1) / 4
  U256Add(&exp, fp256::kP, U256::FromU64(1));
  for (int i = 0; i < 4; i++) {
    exp.v[i] = (exp.v[i] >> 2) | (i < 3 ? exp.v[i + 1] << 62 : 0);
  }
  Rng rng(uint64_t{0x5417});
  std::vector<U256> values = EdgeElements();
  for (int i = 0; i < 2000; i++) {
    values.push_back(RandomElement(rng));
  }
  int residues = 0, non_residues = 0;
  for (const U256& v : values) {
    U256 candidate = Oracle().Pow(v, exp);
    const bool is_square = Oracle().Mul(candidate, candidate) == v;
    auto root = fp256::Sqrt(v);
    ASSERT_EQ(root.has_value(), is_square);
    if (is_square) {
      ASSERT_EQ(*root, candidate);
      residues++;
    } else {
      non_residues++;
    }
  }
  // Half of F_p* are squares; both branches must have run many times.
  EXPECT_GT(residues, 500);
  EXPECT_GT(non_residues, 500);
  EXPECT_EQ(fp256::Sqrt(U256::Zero()), U256::Zero());
  EXPECT_EQ(fp256::Sqrt(fp256::kOne), fp256::kOne);
  // -1 is a non-residue because p = 3 mod 4.
  EXPECT_FALSE(fp256::Sqrt(fp256::Neg(fp256::kOne)).has_value());
}

TEST(FieldP256, BatchInvMatchesOracle) {
  Rng rng(uint64_t{0xba7c});
  for (size_t n : {0u, 1u, 2u, 17u, 64u}) {
    std::vector<U256> values;
    while (values.size() < n) {
      U256 v = RandomElement(rng);
      if (!v.IsZero()) {
        values.push_back(v);
      }
    }
    std::vector<U256> fast = values;
    fp256::BatchInv(fast);
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(fast[i], Oracle().Inv(values[i]));
    }
  }
}

// The IFMA field's edge operands: EdgeElements, 2^256 - p - 1 (R mod p
// minus one), and values whose radix-2^52 limbs are all ones on every
// subset of the five limbs, reduced below p.
std::vector<U256> IfmaEdgeElements() {
  std::vector<U256> out = EdgeElements();
  U256 r_minus_one;
  U256Sub(&r_minus_one, fp256::kOne, U256::FromU64(1));
  out.push_back(r_minus_one);
  for (int mask = 1; mask < 32; mask++) {
    U256 v;
    for (int limb = 0; limb < 5; limb++) {
      if ((mask >> limb & 1) == 0) {
        continue;
      }
      // Bits 52·limb .. 52·limb + 51, cut at bit 256.
      for (int bit = 52 * limb; bit < std::min(256, 52 * limb + 52); bit++) {
        v.v[bit / 64] |= uint64_t{1} << (bit % 64);
      }
    }
    out.push_back(Oracle().Reduce(v));
  }
  return out;
}

U256 FieldOp(LaneFieldOp op, const U256& a, const U256& b) {
  switch (op) {
    case LaneFieldOp::kMul:
      return fp256::Mul(a, b);
    case LaneFieldOp::kSqr:
      return fp256::Sqr(a);
    case LaneFieldOp::kAdd:
      return fp256::Add(a, b);
    case LaneFieldOp::kSub:
      return fp256::Sub(a, b);
    case LaneFieldOp::kNeg:
      return fp256::Neg(a);
  }
  return U256::Zero();
}

constexpr LaneFieldOp kLaneOps[] = {LaneFieldOp::kMul, LaneFieldOp::kSqr,
                                    LaneFieldOp::kAdd, LaneFieldOp::kSub,
                                    LaneFieldOp::kNeg};

// Runs `op` `reps` times over the 32 lanes of x against b on the IFMA
// field (lane i against b[i % 8]) and on fp256, and compares every lane.
void ExpectIfmaLanesMatch(LaneFieldOp op, const std::vector<U256>& x,
                          const std::vector<U256>& b, int reps) {
  std::vector<U256> got = x;
  ASSERT_TRUE(IfmaFieldRun(op, got, b, reps));
  for (size_t i = 0; i < x.size(); i++) {
    U256 want = x[i];
    for (int r = 0; r < reps; r++) {
      want = FieldOp(op, want, b[i % 8]);
    }
    ASSERT_EQ(got[i], want) << "op " << static_cast<int>(op) << " lane " << i
                            << " reps " << reps;
  }
}

TEST(IfmaField, EdgeOperandsMatchFp256LaneByLane) {
  if (IfmaLanes() == nullptr) {
    GTEST_SKIP() << "this CPU has no AVX-512 IFMA; the portable field runs "
                    "alone here";
  }
  const std::vector<U256> edges = IfmaEdgeElements();
  const size_t n = edges.size();
  // Every (a, b) pair of edges: a over 32 lanes, b over 8.
  for (size_t a0 = 0; a0 < n; a0 += 32) {
    std::vector<U256> x(32);
    for (size_t i = 0; i < 32; i++) {
      x[i] = edges[(a0 + i) % n];
    }
    for (size_t b0 = 0; b0 < n; b0++) {
      std::vector<U256> b(8);
      for (size_t j = 0; j < 8; j++) {
        b[j] = edges[(b0 + j) % n];
      }
      for (LaneFieldOp op : kLaneOps) {
        ExpectIfmaLanesMatch(op, x, b, 1);
      }
    }
  }
}

TEST(IfmaField, RandomVectorsMatchFp256LaneByLane) {
  if (IfmaLanes() == nullptr) {
    GTEST_SKIP() << "this CPU has no AVX-512 IFMA; the portable field runs "
                    "alone here";
  }
  Rng rng(uint64_t{0x1f3a52});
  constexpr int kVectors = 100000;
  for (int v = 0; v < kVectors; v += 4) {
    std::vector<U256> x(32), b(8);
    for (U256& e : x) {
      e = RandomElement(rng);
    }
    for (U256& e : b) {
      e = RandomElement(rng);
    }
    for (LaneFieldOp op : kLaneOps) {
      // Chained runs too: a result fed back in must be fully reduced.
      ExpectIfmaLanesMatch(op, x, b, v % 64 == 0 ? 5 : 1);
    }
  }
}

}  // namespace
}  // namespace atom
