// Cross-checks the dedicated P-256 coordinate field (src/crypto/fp256.h)
// against the generic Montgomery field over the same prime, which serves
// as the oracle: both must agree bit for bit on every operation, because
// point coordinates, encodings and transcripts are computed from these
// exact limbs.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/crypto/fp256.h"
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

}  // namespace
}  // namespace atom
