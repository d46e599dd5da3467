// Tests for the P-256 group: field arithmetic, curve known-answer vectors,
// group-law properties, MSM, encoding, hash-to-point, message embedding.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/crypto/lanes.h"
#include "src/crypto/mont.h"
#include "src/crypto/p256.h"
#include "src/util/hex.h"
#include "src/util/rng.h"

namespace atom {
namespace {

U256 U256FromHex(std::string_view h) {
  auto bytes = HexDecode(h);
  EXPECT_TRUE(bytes.has_value() && bytes->size() == 32);
  return U256::FromBytesBe(BytesView(*bytes));
}

// The generic Montgomery field over p: the oracle the dedicated coordinate
// field (src/crypto/fp256.h) is checked against in field_p256_test.
const Mont& MontP() {
  static const Mont field(P256Prime());
  return field;
}

// ------------------------------------------------------------- U256/Mont --

TEST(U256, AddSubInverse) {
  Rng rng(1u);
  for (int i = 0; i < 100; i++) {
    Bytes ab = rng.NextBytes(32), bb = rng.NextBytes(32);
    U256 a = U256::FromBytesBe(BytesView(ab));
    U256 b = U256::FromBytesBe(BytesView(bb));
    U256 sum, back;
    uint64_t carry = U256Add(&sum, a, b);
    uint64_t borrow = U256Sub(&back, sum, b);
    EXPECT_EQ(carry, borrow);  // overflow on add <=> borrow on the way back
    EXPECT_EQ(back, a);
  }
}

TEST(U256, BytesRoundTrip) {
  Rng rng(2u);
  for (int i = 0; i < 50; i++) {
    Bytes raw = rng.NextBytes(32);
    U256 v = U256::FromBytesBe(BytesView(raw));
    auto back = v.ToBytesBe();
    EXPECT_EQ(Bytes(back.begin(), back.end()), raw);
  }
}

TEST(U256, Comparisons) {
  U256 a = U256::FromU64(5), b = U256::FromU64(6);
  EXPECT_TRUE(U256Less(a, b));
  EXPECT_FALSE(U256Less(b, a));
  EXPECT_FALSE(U256Less(a, a));
  U256 big = U256::FromLimbs(0, 0, 0, 1);
  EXPECT_TRUE(U256Less(b, big));
}

TEST(Mont, MulMatchesWideMultiply) {
  // Montgomery-multiply small numbers where the plain product is known.
  const Mont& fp = MontP();
  U256 a = fp.ToMont(U256::FromU64(123456789));
  U256 b = fp.ToMont(U256::FromU64(987654321));
  U256 prod = fp.FromMont(fp.Mul(a, b));
  EXPECT_EQ(prod, U256::FromU64(123456789ull * 987654321ull));
}

TEST(Mont, ToFromMontRoundTrip) {
  Rng rng(3u);
  for (const Mont* field : {&MontP(), &FieldN()}) {
    for (int i = 0; i < 50; i++) {
      Bytes raw = rng.NextBytes(32);
      U256 v = field->Reduce(U256::FromBytesBe(BytesView(raw)));
      EXPECT_EQ(field->FromMont(field->ToMont(v)), v);
    }
  }
}

TEST(Mont, InverseProperty) {
  Rng rng(4u);
  for (const Mont* field : {&MontP(), &FieldN()}) {
    for (int i = 0; i < 20; i++) {
      Bytes raw = rng.NextBytes(32);
      U256 v = field->Reduce(U256::FromBytesBe(BytesView(raw)));
      if (v.IsZero()) {
        continue;
      }
      U256 mv = field->ToMont(v);
      U256 inv = field->Inv(mv);
      EXPECT_EQ(field->Mul(mv, inv), field->one());
    }
  }
}

TEST(Mont, AddSubProperties) {
  const Mont& f = FieldN();
  Rng rng(5u);
  for (int i = 0; i < 50; i++) {
    Bytes ar = rng.NextBytes(32), br = rng.NextBytes(32);
    U256 a = f.Reduce(U256::FromBytesBe(BytesView(ar)));
    U256 b = f.Reduce(U256::FromBytesBe(BytesView(br)));
    EXPECT_EQ(f.Sub(f.Add(a, b), b), a);
    EXPECT_EQ(f.Add(a, f.Neg(a)), U256::Zero());
  }
}

TEST(Mont, PowMatchesRepeatedMul) {
  const Mont& f = MontP();
  U256 base = f.ToMont(U256::FromU64(7));
  U256 expect = f.one();
  for (int e = 0; e < 20; e++) {
    EXPECT_EQ(f.Pow(base, U256::FromU64(static_cast<uint64_t>(e))), expect);
    expect = f.Mul(expect, base);
  }
}

// ----------------------------------------------------------------- Curve --

struct MulVector {
  uint64_t k_low;            // small scalars used directly
  std::string_view k_hex;    // or a full 32-byte scalar (if nonempty)
  std::string_view x_hex;
  std::string_view y_hex;
};

TEST(P256, KnownScalarMultiples) {
  // Generated with the pyca/cryptography P-256 implementation.
  const MulVector vectors[] = {
      {1, "",
       "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
       "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"},
      {2, "",
       "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
       "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"},
      {3, "",
       "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c",
       "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032"},
      {0xdeadbeef, "",
       "b487d183dc4806058eb31a29bedefd7bcca987b77a381a3684871d8449c18394",
       "2a122cc711a80453678c3032de4b6fff2c86342e82d1e7adb617c4165c43ce5e"},
      {0,
       "123456789abcdef0fedcba9876543210123456789abcdef0fedcba9876543210",
       "5c0c78732173106ec12a7572b3d1fbc511beb5844dfbb26b3bb5f6f3fc9bc432",
       "186f2477695716542cbc68e786e7b658b05e8403fe4aa5db7673bf8688bc7c9f"},
  };
  for (const auto& vec : vectors) {
    Scalar k;
    if (vec.k_hex.empty()) {
      k = Scalar::FromU64(vec.k_low);
    } else {
      auto kb = HexDecode(vec.k_hex);
      ASSERT_TRUE(kb.has_value());
      k = Scalar::FromBytesReduced(BytesView(*kb));
    }
    for (Point p : {Point::BaseMul(k), Point::Generator().Mul(k)}) {
      U256 ax, ay;
      p.ToAffine(&ax, &ay);
      EXPECT_EQ(ax, U256FromHex(vec.x_hex));
      EXPECT_EQ(ay, U256FromHex(vec.y_hex));
    }
  }
}

TEST(P256, GeneratorOnCurve) {
  EXPECT_TRUE(Point::Generator().IsOnCurve());
}

TEST(P256, OrderTimesGeneratorIsInfinity) {
  // n*G == infinity, via (n-1)*G + G.
  Scalar n_minus_1 = Scalar::Zero() - Scalar::One();
  Point p = Point::BaseMul(n_minus_1) + Point::Generator();
  EXPECT_TRUE(p.IsInfinity());
}

TEST(P256, AddCommutesAndAssociates) {
  Rng rng(10u);
  Point a = Point::BaseMul(Scalar::Random(rng));
  Point b = Point::BaseMul(Scalar::Random(rng));
  Point c = Point::BaseMul(Scalar::Random(rng));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
}

TEST(P256, DoubleMatchesAdd) {
  Rng rng(11u);
  for (int i = 0; i < 10; i++) {
    Point a = Point::BaseMul(Scalar::Random(rng));
    EXPECT_EQ(a.Double(), a + a);
  }
}

TEST(P256, NegationGivesInfinity) {
  Rng rng(12u);
  Point a = Point::BaseMul(Scalar::Random(rng));
  EXPECT_TRUE((a + a.Neg()).IsInfinity());
}

TEST(P256, InfinityIsNeutral) {
  Rng rng(13u);
  Point a = Point::BaseMul(Scalar::Random(rng));
  EXPECT_EQ(a + Point::Infinity(), a);
  EXPECT_EQ(Point::Infinity() + a, a);
  EXPECT_TRUE((Point::Infinity() + Point::Infinity()).IsInfinity());
}

TEST(P256, MulIsHomomorphic) {
  // (j+k)*P == j*P + k*P.
  Rng rng(14u);
  Point p = Point::BaseMul(Scalar::Random(rng));
  for (int i = 0; i < 5; i++) {
    Scalar j = Scalar::Random(rng), k = Scalar::Random(rng);
    EXPECT_EQ(p.Mul(j + k), p.Mul(j) + p.Mul(k));
  }
}

TEST(P256, MulByZeroAndOne) {
  Rng rng(15u);
  Point p = Point::BaseMul(Scalar::Random(rng));
  EXPECT_TRUE(p.Mul(Scalar::Zero()).IsInfinity());
  EXPECT_EQ(p.Mul(Scalar::One()), p);
}

TEST(P256, EncodeDecodeRoundTrip) {
  Rng rng(16u);
  for (int i = 0; i < 20; i++) {
    Point p = Point::BaseMul(Scalar::Random(rng));
    Bytes enc = p.Encode();
    ASSERT_EQ(enc.size(), Point::kEncodedSize);
    auto back = Point::Decode(BytesView(enc));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

TEST(P256, EncodeDecodeInfinity) {
  Bytes enc = Point::Infinity().Encode();
  auto back = Point::Decode(BytesView(enc));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->IsInfinity());
}

TEST(P256, DecodeRejectsGarbage) {
  Bytes bad(Point::kEncodedSize, 0xff);
  bad[0] = 0x05;  // invalid prefix
  EXPECT_FALSE(Point::Decode(BytesView(bad)).has_value());
  EXPECT_FALSE(Point::Decode(BytesView(bad.data(), 10)).has_value());
  // x >= p with a valid prefix.
  Bytes big(Point::kEncodedSize, 0xff);
  big[0] = 0x02;
  EXPECT_FALSE(Point::Decode(BytesView(big)).has_value());
}

TEST(P256, DecodeRejectsNonResidueX) {
  // Find an x that is not on the curve: x = 5 happens to work for P-256
  // (5^3 - 3*5 + b is a non-residue); if not, scan a few small values.
  for (uint64_t x = 1; x < 50; x++) {
    Bytes enc(Point::kEncodedSize, 0);
    enc[0] = 0x02;
    enc[32] = static_cast<uint8_t>(x);
    if (!Point::Decode(BytesView(enc)).has_value()) {
      return;  // found a rejected x, as expected
    }
  }
  FAIL() << "every small x decoded; decompression validity check is broken";
}

TEST(P256, MsmMatchesNaive) {
  Rng rng(17u);
  for (size_t n : {1u, 2u, 7u, 8u, 33u, 100u}) {
    std::vector<Point> points;
    std::vector<Scalar> scalars;
    Point expect = Point::Infinity();
    for (size_t i = 0; i < n; i++) {
      Point p = Point::BaseMul(Scalar::Random(rng));
      Scalar s = Scalar::Random(rng);
      expect = expect + p.Mul(s);
      points.push_back(p);
      scalars.push_back(s);
    }
    EXPECT_EQ(MultiScalarMul(points, scalars), expect) << "n=" << n;
  }
}

TEST(P256, MsmHandlesZeroScalars) {
  Rng rng(18u);
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  for (int i = 0; i < 20; i++) {
    points.push_back(Point::BaseMul(Scalar::Random(rng)));
    scalars.push_back(Scalar::Zero());
  }
  EXPECT_TRUE(MultiScalarMul(points, scalars).IsInfinity());
}

// An MSM input whose every point is k_i * G, so the expected sum is
// (sum of s_i * k_i) * G: scalar arithmetic plus one generic Point::Mul,
// independent of both MSM kernels. Index patterns plant every special case
// the kernels branch on: a repeated term (equal bucket entries: the
// doubling branch of the mixed add), a term cancelling its predecessor
// (a bucket or accumulator back to the identity), identity points, zero
// scalars, and the scalars 1, n - 1 and 2^252 - 1 (a carry through every
// signed digit).
struct MsmCase {
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  Point expect;
};

// The scalar whose low `windows` windows of `window_bits` bits each hold
// `value`.
Scalar WindowPattern(int window_bits, uint64_t value, int windows) {
  U256 e;
  for (int w = 0; w < windows; w++) {
    for (int b = 0; b < window_bits; b++) {
      if ((value >> b) & 1) {
        const int bit = w * window_bits + b;
        e.v[bit / 64] |= uint64_t{1} << (bit % 64);
      }
    }
  }
  auto bytes = e.ToBytesBe();
  return Scalar::FromBytes(BytesView(bytes.data(), bytes.size())).value();
}

// 2^k for k <= 255 (below n, so the scalar's plain value is 2^k).
Scalar PowerOfTwo(int k) { return WindowPattern(1, 1, k) + Scalar::One(); }

MsmCase MakeMsmCase(size_t n, Rng& rng) {
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  const Scalar all_ones = WindowPattern(1, 1, 252);
  MsmCase c;
  Scalar log = Scalar::Zero();
  Scalar prev_k, prev_s;
  for (size_t i = 0; i < n; i++) {
    Scalar k = Scalar::Random(rng);
    Scalar s = Scalar::Random(rng);
    switch (i % 12) {
      case 1:  // repeats term i - 1
        k = prev_k;
        s = prev_s;
        break;
      case 3:  // cancels term i - 1
        k = prev_k.Neg();
        s = prev_s;
        break;
      case 4:  // identity point
        k = Scalar::Zero();
        break;
      case 5:
        s = Scalar::Zero();
        break;
      case 6:
        s = Scalar::One();
        break;
      case 7:
        s = minus_one;
        break;
      case 8:
        s = all_ones;
        break;
      default:
        break;
    }
    c.points.push_back(k.IsZero() ? Point::Infinity() : Point::BaseMul(k));
    c.scalars.push_back(s);
    log = log + s * k;
    prev_k = k;
    prev_s = s;
  }
  c.expect = Point::Generator().Mul(log);
  return c;
}

// An MSM kernel under test: MultiScalarMul, StrausMsm or a lane backend's
// pippenger.
using MsmKernel = Point (*)(std::span<const Point>, std::span<const Scalar>);

Point DispatchedMsm(std::span<const Point> points,
                    std::span<const Scalar> scalars) {
  return MultiScalarMul(points, scalars);
}

// 0..64 and larger sizes on both sides of each backend's crossover.
std::vector<size_t> MsmSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 64; n++) {
    sizes.push_back(n);
  }
  for (size_t n : {size_t{100}, size_t{139}, size_t{149}, size_t{255},
                   size_t{256}, size_t{257}, size_t{1024}, size_t{2048}}) {
    sizes.push_back(n);
  }
  for (size_t min : {kPippengerMinPortable, kPippengerMinIfma}) {
    sizes.insert(sizes.end(), {min - 1, min, min + 1});
  }
  return sizes;
}

// Every kernel against the discrete-log sum of MakeMsmCase at every size.
void ExpectMsmMatchesDiscreteLogSums(std::initializer_list<MsmKernel> kernels,
                                     const char* name) {
  Rng rng(19u);
  for (size_t n : MsmSizes()) {
    const MsmCase c = MakeMsmCase(n, rng);
    for (MsmKernel msm : kernels) {
      EXPECT_EQ(msm(c.points, c.scalars), c.expect) << name << " n=" << n;
    }
    if (n <= 64) {
      Point naive = Point::Infinity();
      for (size_t i = 0; i < n; i++) {
        naive = naive + c.points[i].Mul(c.scalars[i]);
      }
      EXPECT_EQ(naive, c.expect) << "n=" << n;
    }
  }
}

void ExpectCancellingAndRepeatedTerms(MsmKernel msm, const char* name) {
  Rng rng(20u);
  const Point p = Point::BaseMul(Scalar::Random(rng));
  const Point q = Point::BaseMul(Scalar::Random(rng));
  const Scalar s = Scalar::Random(rng);
  const Scalar t = Scalar::Random(rng);
  // P and -P with one scalar: the accumulator (and every bucket) adds an
  // entry to its own negation and must land on the identity.
  EXPECT_TRUE(msm(std::vector<Point>{p, p.Neg()}, std::vector<Scalar>{s, s})
                  .IsInfinity())
      << name;
  // ...and keep going from there.
  EXPECT_EQ(
      msm(std::vector<Point>{p, p.Neg(), q}, std::vector<Scalar>{s, s, t}),
      q.Mul(t))
      << name;
  // P twice with one scalar: an entry added to itself doubles.
  EXPECT_EQ(msm(std::vector<Point>{p, p}, std::vector<Scalar>{s, s}),
            p.Mul(s + s))
      << name;
  // 200 cancelling pairs: on both sides of the crossover.
  std::vector<Point> points;
  std::vector<Scalar> scalars;
  for (int i = 0; i < 200; i++) {
    Point r = Point::BaseMul(Scalar::Random(rng));
    Scalar k = Scalar::Random(rng);
    points.insert(points.end(), {r, r.Neg()});
    scalars.insert(scalars.end(), {k, k});
  }
  EXPECT_TRUE(msm(points, scalars).IsInfinity()) << name;
  // Nothing but identities and zero scalars.
  EXPECT_TRUE(msm(std::vector<Point>{Point::Infinity(), p},
                  std::vector<Scalar>{s, Scalar::Zero()})
                  .IsInfinity())
      << name;
  EXPECT_TRUE(msm({}, {}).IsInfinity()) << name;
}

// Inputs aimed at the window-parallel Pippenger (lane j of a pass runs one
// window, buckets are per lane, additions complete), each checked against
// its discrete-log sum: every base is log·G.
void ExpectPippengerEdgeCases(MsmKernel msm, const char* name) {
  Rng rng(21u);
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  struct Terms {
    std::vector<Point> points;
    std::vector<Scalar> scalars;
    Scalar log;
    void Add(const Scalar& base_log, const Scalar& s) {
      points.push_back(base_log.IsZero() ? Point::Infinity()
                                         : Point::BaseMul(base_log));
      scalars.push_back(s);
      log = log + base_log * s;
    }
    void Random(Rng& rng, size_t count) {
      for (size_t i = 0; i < count; i++) {
        Add(Scalar::Random(rng), Scalar::Random(rng));
      }
    }
  };
  auto expect = [&](const Terms& terms, const char* what) {
    EXPECT_EQ(msm(terms.points, terms.scalars), Point::BaseMul(terms.log))
        << name << ": " << what << ", n=" << terms.points.size();
  };
  for (size_t filler : {size_t{0}, size_t{300}}) {
    // A repeated base whose scalars agree below bit 128 and differ above:
    // its two digits meet in one bucket (the doubling) in the low windows
    // and part in the high ones. Then the same with the second term's
    // point negated: a bucket meets -P in the low windows.
    for (bool negate : {false, true}) {
      Terms terms;
      for (int i = 0; i < 8; i++) {
        const Scalar a = Scalar::Random(rng), s = Scalar::Random(rng);
        terms.Add(a, s);
        terms.Add(negate ? a.Neg() : a, s + PowerOfTwo(128 + 9 * i));
      }
      terms.Random(rng, filler);
      expect(terms, negate ? "bucket meets -P" : "bucket meets P");
    }
    // The same base under 5 and 4: buckets 4 and 3 of window 0 both hold
    // P, so the running sum equals the next bucket (a doubling in the
    // reduction); under 2 alone, the running sum meets an empty bucket and
    // the window sum equals it (the other doubling).
    {
      Terms terms;
      const Scalar a = Scalar::Random(rng);
      terms.Add(a, Scalar::FromU64(5));
      terms.Add(a, Scalar::FromU64(4));
      terms.Random(rng, filler);
      expect(terms, "running sum equals the next bucket");
      Terms two;
      two.Add(a, Scalar::FromU64(2));
      two.Random(rng, filler);
      expect(two, "window sum equals the running sum");
    }
    // Top-heavy scalars (n - 1, 2^255, 2^252 - 1): the top windows, in a
    // last pass whose other lanes idle, hold digits and carries.
    {
      Terms terms;
      for (const Scalar& s :
           {minus_one, PowerOfTwo(255), WindowPattern(1, 1, 252)}) {
        terms.Add(Scalar::Random(rng), s);
      }
      terms.Random(rng, filler);
      expect(terms, "top windows");
    }
  }
  // Every window width the cost model can pick, each with idle lanes in
  // its last pass on the IFMA backend (ceil(257 / c) is not a multiple of
  // 8 for c = 4..8), each with an edge scalar at the top.
  for (size_t n : {size_t{1}, size_t{16}, size_t{90}, size_t{400},
                   size_t{1500}}) {
    Terms terms;
    terms.Add(Scalar::Random(rng), minus_one);
    terms.Random(rng, n - 1);
    expect(terms, "window width");
  }
  // Identity points and zero scalars above every crossover: interleaved
  // with live terms, and alone.
  {
    Terms terms;
    for (int i = 0; i < 400; i++) {
      switch (i % 4) {
        case 0: terms.Add(Scalar::Zero(), Scalar::Random(rng)); break;
        case 1: terms.Add(Scalar::Random(rng), Scalar::Zero()); break;
        default: terms.Random(rng, 1);
      }
    }
    expect(terms, "identities and zero scalars among live terms");
    Terms dead;
    for (int i = 0; i < 400; i++) {
      dead.Add(i % 2 == 0 ? Scalar::Zero() : Scalar::Random(rng),
               i % 2 == 0 ? Scalar::Random(rng) : Scalar::Zero());
    }
    expect(dead, "only identities and zero scalars");
  }
}

TEST(P256, MsmKernelsMatchDiscreteLogSumAtEverySize) {
  ExpectMsmMatchesDiscreteLogSums(
      {&DispatchedMsm, &StrausMsm, PortableLanes().pippenger}, "portable");
}

TEST(P256, MsmCancellingAndRepeatedTerms) {
  for (MsmKernel msm :
       {MsmKernel{&DispatchedMsm}, MsmKernel{&StrausMsm},
        PortableLanes().pippenger}) {
    ExpectCancellingAndRepeatedTerms(msm, "portable");
  }
}

TEST(P256, PippengerEdgeCasesPortable) {
  ExpectPippengerEdgeCases(PortableLanes().pippenger, "portable");
  ExpectPippengerEdgeCases(&DispatchedMsm, "MultiScalarMul");
}

// The IFMA backend's pippenger through the same cases, where the CPU has
// AVX-512 IFMA.
TEST(P256, PippengerCasesIfma) {
  if (IfmaLanes() == nullptr) {
    GTEST_SKIP() << "no AVX-512 IFMA on this CPU or build: the IFMA "
                    "pippenger did not run (the portable one did)";
  }
  const MsmKernel msm = IfmaLanes()->pippenger;
  ExpectMsmMatchesDiscreteLogSums({msm}, "ifma");
  ExpectCancellingAndRepeatedTerms(msm, "ifma");
  ExpectPippengerEdgeCases(msm, "ifma");
}

// ------------------------------------------------ variable-base kernels --

// The lane kernel's backends: portable always, IFMA where the CPU has it.
std::vector<const LaneBackend*> LaneBackends() {
  std::vector<const LaneBackend*> out{&PortableLanes()};
  if (IfmaLanes() != nullptr) {
    out.push_back(IfmaLanes());
  }
  return out;
}

// Every backend's outputs, encoded: the backends must agree byte for byte.
void ExpectBackendsAgree(const std::vector<Bytes>& encoded) {
  for (size_t i = 1; i < encoded.size(); i++) {
    EXPECT_EQ(encoded[i], encoded[0]);
  }
}

// Point::Mul (width-5 NAF over Jacobian odd multiples) and the lane
// kernel's variable-base entry point (each scalar made odd and split at bit
// 128, over affine tables of P and 2^128·P) against two oracles that share
// no code with them: the discrete-log oracle (base = a·G, so base·k must be
// BaseMul(a·k), a FixedBaseTable product) and a one-term MultiScalarMul
// (Straus, width 4). The lane call has two columns, k shared and k + 1.
void ExpectVariableBaseMatchesOracles(const Scalar& a, const Scalar& k) {
  const Point base = Point::BaseMul(a);
  const Point expect = Point::BaseMul(a * k);
  EXPECT_EQ(base.Mul(k), expect);
  EXPECT_EQ(MultiScalarMul(std::vector<Point>{base}, std::vector<Scalar>{k}),
            expect);
  const Scalar other = k + Scalar::One();
  std::vector<Bytes> encoded;
  for (const LaneBackend* backend : LaneBackends()) {
    Point out_a, out_b;
    const std::vector<std::span<const Scalar>> columns = {
        std::span(&k, 1), std::span(&other, 1)};
    const std::vector<std::span<Point>> outs = {std::span(&out_a, 1),
                                                std::span(&out_b, 1)};
    backend->variable_base(std::span(&base, 1), columns, outs);
    EXPECT_EQ(out_a, expect) << backend->name;
    EXPECT_EQ(out_b, Point::BaseMul(a * other)) << backend->name;
    encoded.push_back(EncodePoints(std::vector<Point>{out_a, out_b}));
  }
  ExpectBackendsAgree(encoded);
}

// 0, 1, 2, n - 1, n - 2 and 2^255. n - 1 and n - 2 have their top 32 bits
// set, so their width-5 NAF carries into a digit at bit 256; so do
// 2^256 - 2^251 + 2^250 - 1 (five top bits, then a low all-ones run) and
// 2^255 - 1 (every window all ones). Every window 17 recodes to digits
// -15 with a carry each; every window 16 is the largest digit without one.
// Where the lane kernel splits: 2^128 - 1 (the low half's NAF carries into
// bit 128), 2^128 (a zero low half), 2^127 (a zero high half) and 2^128 + 1
// (an even high half). 6, 30, n - 6 and n - 30 are the products whose last
// lane-kernel addition meets acc = ±(entry).
TEST(P256, WnafMulEdgeScalars) {
  Rng rng(46u);
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  const Scalar two_255 = PowerOfTwo(255);
  const Scalar scalars[] = {
      Scalar::Zero(),
      Scalar::One(),
      Scalar::FromU64(2),
      minus_one,
      minus_one - Scalar::One(),
      two_255,
      two_255 + two_255 - PowerOfTwo(251) + WindowPattern(1, 1, 250),
      WindowPattern(5, 31, 51),
      WindowPattern(5, 17, 51),
      WindowPattern(5, 16, 51),
      WindowPattern(1, 1, 128),
      PowerOfTwo(128),
      PowerOfTwo(127),
      PowerOfTwo(128) + Scalar::One(),
      Scalar::FromU64(6),
      Scalar::FromU64(30),
      minus_one - Scalar::FromU64(5),
      minus_one - Scalar::FromU64(29),
  };
  for (const Scalar& k : scalars) {
    for (int i = 0; i < 4; i++) {
      ExpectVariableBaseMatchesOracles(Scalar::Random(rng), k);
    }
    EXPECT_EQ(Point::Generator().Mul(k), Point::BaseMul(k));
    EXPECT_TRUE(Point::Infinity().Mul(k).IsInfinity());
  }
  const Point base = Point::BaseMul(Scalar::Random(rng));
  EXPECT_TRUE((base.Mul(minus_one) + base).IsInfinity());
  EXPECT_EQ(base.Mul(Scalar::FromU64(2)), base.Double());
}

TEST(P256, WnafMulRandomPairs) {
  Rng rng(47u);
  for (int i = 0; i < 1000; i++) {
    const Scalar a = Scalar::Random(rng);
    ExpectVariableBaseMatchesOracles(a, Scalar::Random(rng));
  }
}

// One variable-base lane call over many bases (several 8-lane chunks)
// shares one inversion per chunk across all their tables; identity bases
// and zero scalars anywhere in the spans yield the identity without
// disturbing their neighbours.
TEST(P256, LaneVariableBaseBatchWithIdentitiesAndZeros) {
  Rng rng(48u);
  constexpr size_t kN = 40;
  std::vector<Scalar> logs(kN), a(kN), b(kN);
  std::vector<Point> bases(kN);
  for (size_t i = 0; i < kN; i++) {
    logs[i] = i % 7 == 3 ? Scalar::Zero() : Scalar::Random(rng);
    bases[i] = logs[i].IsZero() ? Point::Infinity() : Point::BaseMul(logs[i]);
    a[i] = i % 5 == 1 ? Scalar::Zero() : Scalar::Random(rng);
    b[i] = i % 6 == 2   ? Scalar::Zero()
           : i % 4 == 0 ? a[i]
                        : Scalar::Random(rng);
  }
  const Scalar shared = Scalar::Random(rng);
  std::vector<Bytes> encoded;
  for (const LaneBackend* backend : LaneBackends()) {
    std::vector<Point> out_a(kN), out_b(kN), out_s(kN);
    const std::vector<std::span<const Scalar>> columns = {
        a, b, std::span(&shared, 1)};
    const std::vector<std::span<Point>> outs = {out_a, out_b, out_s};
    backend->variable_base(bases, columns, outs);
    for (size_t i = 0; i < kN; i++) {
      EXPECT_EQ(out_a[i], Point::BaseMul(logs[i] * a[i])) << i;
      EXPECT_EQ(out_b[i], Point::BaseMul(logs[i] * b[i])) << i;
      EXPECT_EQ(out_s[i], Point::BaseMul(logs[i] * shared)) << i;
      EXPECT_EQ(out_a[i], bases[i].Mul(a[i])) << i;
    }
    encoded.push_back(EncodePoints(out_a));
    const std::vector<Point> none;
    const std::vector<Scalar> no_scalars;
    const std::vector<std::span<const Scalar>> empty_columns = {no_scalars};
    const std::vector<std::span<Point>> empty_outs = {std::span<Point>()};
    backend->variable_base(none, empty_columns, empty_outs);
  }
  ExpectBackendsAgree(encoded);
  // The dispatching entry point, split across workers, agrees.
  std::vector<Point> out(kN);
  const std::span<const Scalar> columns[] = {a};
  const std::span<Point> outs[] = {out};
  VariableBaseMul(bases, columns, outs, 3);
  EXPECT_EQ(EncodePoints(out), encoded[0]);
}

// The fixed-base entry point against the discrete-log oracle on the
// generator's table and on a table of a·G, at the edge scalars of the
// table recoding (digits of 32, carries into the top window, zero
// windows) and 1,000 seeded scalars, in calls of 1..9 lanes.
TEST(P256, LaneFixedBaseMatchesOracle) {
  Rng rng(49u);
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  std::vector<Scalar> scalars = {
      Scalar::Zero(),        Scalar::One(),
      Scalar::FromU64(32),   Scalar::FromU64(33),
      minus_one,             minus_one - Scalar::One(),
      PowerOfTwo(255),       PowerOfTwo(252),
      PowerOfTwo(128),       WindowPattern(1, 1, 128),
      WindowPattern(6, 32, 42), WindowPattern(6, 33, 42),
      WindowPattern(6, 63, 42), WindowPattern(6, 31, 42),
  };
  while (scalars.size() < 1014) {
    scalars.push_back(Scalar::Random(rng));
  }
  const Scalar log = Scalar::Random(rng);
  const FixedBaseTable table(Point::BaseMul(log));
  const FixedBaseTable identity_table(Point::Infinity());
  std::vector<Bytes> encoded;
  for (const LaneBackend* backend : LaneBackends()) {
    std::vector<Point> on_g(scalars.size()), on_t(scalars.size());
    for (size_t at = 0, lanes = 1; at < scalars.size();
         at += lanes, lanes = lanes % 9 + 1) {
      lanes = std::min(lanes, scalars.size() - at);
      backend->fixed_base(Point::GeneratorTable(),
                          std::span(scalars).subspan(at, lanes),
                          std::span(on_g).subspan(at, lanes));
      backend->fixed_base(table, std::span(scalars).subspan(at, lanes),
                          std::span(on_t).subspan(at, lanes));
    }
    for (size_t i = 0; i < scalars.size(); i++) {
      ASSERT_EQ(on_g[i], Point::BaseMul(scalars[i])) << backend->name << i;
      ASSERT_EQ(on_t[i], Point::BaseMul(log * scalars[i]))
          << backend->name << i;
    }
    std::vector<Point> none(3, Point::Generator());
    backend->fixed_base(identity_table, std::span(scalars).first(3), none);
    for (const Point& p : none) {
      EXPECT_TRUE(p.IsInfinity());
    }
    encoded.push_back(EncodePoints(on_t));
  }
  ExpectBackendsAgree(encoded);
}

// The shared-digit MSM entry point against MultiScalarMul and the
// discrete-log oracle: 1..11 lanes of n = 1..9 terms, with identity
// bases, zero and edge scalars, repeated and negated bases (the additions
// that meet acc = ±entry), all in one call.
TEST(P256, LaneSharedDigitMsmMatchesOracles) {
  Rng rng(50u);
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  const Scalar edges[] = {Scalar::Zero(), Scalar::One(), minus_one,
                          Scalar::FromU64(2), PowerOfTwo(128),
                          WindowPattern(5, 17, 51)};
  for (size_t n = 1; n <= 9; n++) {
    const size_t lanes = (n * 5) % 11 + 1;
    std::vector<Scalar> scalars(n);
    for (size_t t = 0; t < n; t++) {
      scalars[t] = t % 3 == 1 ? edges[(n + t) % 6] : Scalar::Random(rng);
    }
    std::vector<Scalar> logs(lanes * n);
    std::vector<Point> bases(lanes * n);
    for (size_t m = 0; m < lanes; m++) {
      for (size_t t = 0; t < n; t++) {
        Scalar& log = logs[m * n + t];
        switch ((m + 2 * t) % 7) {
          case 0: log = Scalar::Zero(); break;                       // identity
          case 1: log = t > 0 ? logs[m * n] : Scalar::One(); break;  // repeat
          case 2: log = t > 0 ? logs[m * n].Neg() : minus_one; break;
          default: log = Scalar::Random(rng);
        }
        bases[m * n + t] = log.IsZero() ? Point::Infinity()
                                        : Point::BaseMul(log);
      }
    }
    std::vector<Bytes> encoded;
    for (const LaneBackend* backend : LaneBackends()) {
      std::vector<Point> out(lanes);
      backend->msm(bases, scalars, out);
      for (size_t m = 0; m < lanes; m++) {
        Scalar expect = Scalar::Zero();
        for (size_t t = 0; t < n; t++) {
          expect = expect + logs[m * n + t] * scalars[t];
        }
        const std::span<const Point> row(bases.data() + m * n, n);
        EXPECT_EQ(out[m], Point::BaseMul(expect)) << backend->name << n << m;
        EXPECT_EQ(out[m], MultiScalarMul(row, scalars)) << backend->name;
      }
      encoded.push_back(EncodePoints(out));
    }
    ExpectBackendsAgree(encoded);
  }
}

// The MSM entry point's precondition at work: its accumulator starts at the
// public offset R, and its additions do not handle acc = entry. A base equal
// to R under scalar 1 (top digit +1), or to -R under n - 1 (made odd as 1,
// the digits negated), meets that case in the first window, and the result
// is wrong. Callers must not pass bases anyone could relate to R; this test
// pins that the contract, not the kernel, rules them out.
TEST(P256, LaneMsmBaseRelatedToOffsetIsOutsideContract) {
  const Point r = HashToPoint(BytesView(ToBytes("atom/lanes/msm-offset")));
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  const Point other = Point::BaseMul(Scalar::FromU64(5));
  for (const LaneBackend* backend : LaneBackends()) {
    for (const auto& [base, k] :
         {std::pair(r, Scalar::One()), std::pair(r.Neg(), minus_one)}) {
      const std::vector<Point> bases = {base};
      Point out;
      backend->msm(bases, std::span(&k, 1), std::span(&out, 1));
      EXPECT_FALSE(out == r) << backend->name;
      // An unrelated base through the same call shape is exact.
      backend->msm(std::span(&other, 1), std::span(&k, 1), std::span(&out, 1));
      EXPECT_EQ(out, other.Mul(k)) << backend->name;
    }
  }
}

TEST(P256, HashToPointDeterministicAndDistinct) {
  Point a1 = HashToPoint(BytesView(ToBytes("label-a")));
  Point a2 = HashToPoint(BytesView(ToBytes("label-a")));
  Point b = HashToPoint(BytesView(ToBytes("label-b")));
  EXPECT_EQ(a1, a2);
  EXPECT_FALSE(a1 == b);
  EXPECT_TRUE(a1.IsOnCurve());
  EXPECT_TRUE(b.IsOnCurve());
}

TEST(P256, EmbedExtractRoundTrip) {
  Rng rng(19u);
  for (size_t len : {0u, 1u, 10u, 29u, 30u}) {
    Bytes msg = rng.NextBytes(len);
    auto p = EmbedMessage(BytesView(msg));
    ASSERT_TRUE(p.has_value()) << "len=" << len;
    EXPECT_TRUE(p->IsOnCurve());
    auto back = ExtractMessage(*p);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, msg);
  }
}

TEST(P256, EmbedRejectsOversize) {
  Bytes msg(kEmbedCapacity + 1, 0);
  EXPECT_FALSE(EmbedMessage(BytesView(msg)).has_value());
}

TEST(P256, EmbedSurvivesGroupOperations) {
  // Embedding must survive the ElGamal path: multiply by blinding factors
  // and divide back out.
  Rng rng(20u);
  Bytes msg = ToBytes("trap:gid=7");
  auto m = EmbedMessage(BytesView(msg));
  ASSERT_TRUE(m.has_value());
  Point blind = Point::BaseMul(Scalar::Random(rng));
  Point blinded = *m + blind;
  Point recovered = blinded - blind;
  EXPECT_EQ(recovered, *m);
  EXPECT_EQ(*ExtractMessage(recovered), msg);
}

// ---------------------------------------------------------------- Scalar --

TEST(ScalarOps, FieldAxioms) {
  Rng rng(21u);
  for (int i = 0; i < 20; i++) {
    Scalar a = Scalar::Random(rng), b = Scalar::Random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) - b, a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inv(), Scalar::One());
    }
    EXPECT_EQ(a + a.Neg(), Scalar::Zero());
  }
}

TEST(ScalarOps, BytesRoundTrip) {
  Rng rng(22u);
  for (int i = 0; i < 20; i++) {
    Scalar a = Scalar::Random(rng);
    auto bytes = a.ToBytes();
    auto back = Scalar::FromBytes(BytesView(bytes.data(), bytes.size()));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
}

TEST(ScalarOps, FromBytesRejectsOverflow) {
  Bytes all_ff(32, 0xff);  // 2^256-1 > n
  EXPECT_FALSE(Scalar::FromBytes(BytesView(all_ff)).has_value());
  auto order_bytes = P256Order().ToBytesBe();
  EXPECT_FALSE(
      Scalar::FromBytes(BytesView(order_bytes.data(), 32)).has_value());
}

TEST(ScalarOps, FromBytesReducedWraps) {
  // n + 5 should reduce to 5.
  U256 n_plus_5;
  U256Add(&n_plus_5, P256Order(), U256::FromU64(5));
  auto bytes = n_plus_5.ToBytesBe();
  Scalar s = Scalar::FromBytesReduced(BytesView(bytes.data(), 32));
  EXPECT_EQ(s, Scalar::FromU64(5));
}

TEST(ScalarOps, RandomIsNonDegenerate) {
  Rng rng(23u);
  Scalar a = Scalar::Random(rng), b = Scalar::Random(rng);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a.IsZero());
}

// --------------------------------------------------------- fixed-base table

TEST(FixedBase, TableMatchesGenericMul) {
  Rng rng(41u);
  Point base = Point::BaseMul(Scalar::Random(rng));
  FixedBaseTable table(base);
  EXPECT_EQ(table.base(), base);
  for (int i = 0; i < 32; i++) {
    Scalar k = Scalar::Random(rng);
    EXPECT_EQ(table.Mul(k), base.Mul(k));
  }
}

TEST(FixedBase, TableEdgeScalars) {
  Rng rng(42u);
  Point base = Point::BaseMul(Scalar::Random(rng));
  FixedBaseTable table(base);
  EXPECT_TRUE(table.Mul(Scalar::Zero()).IsInfinity());
  EXPECT_EQ(table.Mul(Scalar::One()), base);
  // n - 1 (all windows saturated on the high limbs): -P.
  Scalar n_minus_1 = Scalar::Zero() - Scalar::One();
  EXPECT_EQ(table.Mul(n_minus_1), base.Mul(n_minus_1));
  EXPECT_TRUE((table.Mul(n_minus_1) + base).IsInfinity());
}

// Scalars whose signed 6-bit recoding carries through every window: n - 1
// and n - 2 (top windows saturated), every window 33 (each digit becomes
// -31 and carries), 32 (the largest digit that does not carry), and 63
// (digit -1, carry, repeated: 2^252 - 1).
TEST(FixedBase, SignedRecodingCarriesThroughEveryWindow) {
  Rng rng(45u);
  const Point base = Point::BaseMul(Scalar::Random(rng));
  const FixedBaseTable table(base);
  const Scalar minus_one = Scalar::Zero() - Scalar::One();
  const Scalar scalars[] = {
      minus_one,
      minus_one - Scalar::One(),
      WindowPattern(6, 33, 42),
      WindowPattern(6, 32, 42),
      WindowPattern(6, 63, 42),
      WindowPattern(6, 33, 42) - Scalar::One(),
  };
  for (const Scalar& k : scalars) {
    EXPECT_EQ(table.Mul(k), base.Mul(k));
    EXPECT_EQ(Point::GeneratorTable().Mul(k), Point::Generator().Mul(k));
    EXPECT_EQ(Point::BaseMul(k), Point::Generator().Mul(k));
  }
  EXPECT_TRUE((table.Mul(minus_one) + base).IsInfinity());
}

TEST(FixedBase, GeneratorTableIsBaseMul) {
  Rng rng(43u);
  for (int i = 0; i < 8; i++) {
    Scalar k = Scalar::Random(rng);
    EXPECT_EQ(Point::GeneratorTable().Mul(k), Point::Generator().Mul(k));
    EXPECT_EQ(Point::BaseMul(k), Point::Generator().Mul(k));
  }
}

TEST(FixedBase, IdentityBaseTableYieldsInfinity) {
  FixedBaseTable table(Point::Infinity());
  Rng rng(44u);
  EXPECT_TRUE(table.Mul(Scalar::Random(rng)).IsInfinity());
  EXPECT_TRUE(table.Mul(Scalar::Zero()).IsInfinity());
}

TEST(BatchAffine, MatchesPerPointToAffine) {
  Rng rng(45u);
  std::vector<Point> points;
  for (int i = 0; i < 17; i++) {
    // Mix of fresh multiples and sums so z coordinates are nontrivial.
    points.push_back(Point::BaseMul(Scalar::Random(rng)) +
                     Point::BaseMul(Scalar::Random(rng)));
  }
  auto affine = Point::BatchToAffine(points);
  ASSERT_EQ(affine.size(), points.size());
  for (size_t i = 0; i < points.size(); i++) {
    EXPECT_FALSE(affine[i].infinity);
    U256 x, y;
    points[i].ToAffine(&x, &y);
    EXPECT_EQ(affine[i].x, x);
    EXPECT_EQ(affine[i].y, y);
  }
}

TEST(BatchAffine, HandlesIdentityInBatch) {
  Rng rng(46u);
  std::vector<Point> points = {Point::BaseMul(Scalar::Random(rng)),
                               Point::Infinity(),
                               Point::BaseMul(Scalar::Random(rng)),
                               Point::Infinity()};
  auto affine = Point::BatchToAffine(points);
  ASSERT_EQ(affine.size(), 4u);
  EXPECT_FALSE(affine[0].infinity);
  EXPECT_TRUE(affine[1].infinity);
  EXPECT_FALSE(affine[2].infinity);
  EXPECT_TRUE(affine[3].infinity);
  U256 x, y;
  points[2].ToAffine(&x, &y);
  EXPECT_EQ(affine[2].x, x);
  EXPECT_EQ(affine[2].y, y);
  // All-identity and empty batches are fine too.
  EXPECT_TRUE(Point::BatchToAffine(std::vector<Point>{}).empty());
  auto all_inf = Point::BatchToAffine(
      std::vector<Point>{Point::Infinity(), Point::Infinity()});
  EXPECT_TRUE(all_inf[0].infinity && all_inf[1].infinity);
}

TEST(BatchAffine, EncodePointsMatchesLoopedEncode) {
  Rng rng(47u);
  std::vector<Point> points;
  for (int i = 0; i < 9; i++) {
    points.push_back(Point::BaseMul(Scalar::Random(rng)));
  }
  points.insert(points.begin() + 3, Point::Infinity());
  Bytes batch = EncodePoints(points);
  ASSERT_EQ(batch.size(), points.size() * Point::kEncodedSize);
  for (size_t i = 0; i < points.size(); i++) {
    Bytes one = points[i].Encode();
    EXPECT_TRUE(std::equal(one.begin(), one.end(),
                           batch.begin() +
                               static_cast<ptrdiff_t>(i *
                                                      Point::kEncodedSize)));
  }
  EXPECT_TRUE(EncodePoints(std::vector<Point>{}).empty());
}

}  // namespace
}  // namespace atom
