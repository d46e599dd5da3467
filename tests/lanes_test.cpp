// Constant-schedule evidence for the lane kernel (src/crypto/lane_kernel.inc):
// the kernel is compiled once more over a recording backend that performs
// the portable backend's field arithmetic and logs every field op, select,
// mask and index load, and every table row and entry it reads. For each
// entry point the logs must be identical across bases and scalars: the
// edge scalars of tests/p256_test.cpp and 1,000 seeded ones. The recorded
// outputs are also checked against the discrete-log oracle, so the log is
// the schedule of a computation that is right.
#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "src/crypto/lane_portable.h"
#include "src/crypto/lanes.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace atom {
namespace lane_record {

std::vector<uint32_t>* g_log = nullptr;
const Point::Affine* g_table = nullptr;  // row 0 of the fixed-base table

enum Op : uint32_t {
  kMul = 1, kSqr, kAdd, kSub, kNeg, kSelect, kIsZero, kLoadIdx, kLoadMask,
  kIdxEq, kLoad, kStore, kScanShared, kScanLane, kEntry,
};

void Log(uint32_t op, uint32_t arg = 0) { g_log->push_back(op << 16 | arg); }

struct RecordField : PortableField {
  static Elem Mul(const Elem& a, const Elem& b) {
    Log(kMul);
    return PortableField::Mul(a, b);
  }
  static Elem Sqr(const Elem& a) {
    Log(kSqr);
    return PortableField::Sqr(a);
  }
  static Elem Add(const Elem& a, const Elem& b) {
    Log(kAdd);
    return PortableField::Add(a, b);
  }
  static Elem Sub(const Elem& a, const Elem& b) {
    Log(kSub);
    return PortableField::Sub(a, b);
  }
  static Elem Neg(const Elem& a) {
    Log(kNeg);
    return PortableField::Neg(a);
  }
  static Elem Select(Mask m, const Elem& a, const Elem& b) {
    Log(kSelect);
    return PortableField::Select(m, a, b);
  }
  static Mask IsZero(const Elem& a) {
    Log(kIsZero);
    return PortableField::IsZero(a);
  }
  static Idx LoadIdx(const uint8_t* p) {
    Log(kLoadIdx);
    return PortableField::LoadIdx(p);
  }
  static Mask LoadMask(const uint8_t* p) {
    Log(kLoadMask);
    return PortableField::LoadMask(p);
  }
  static Mask IdxEq(Idx idx, int j) {
    Log(kIdxEq, static_cast<uint32_t>(j));
    return PortableField::IdxEq(idx, j);
  }
  static Elem Load(const U256* p) {
    Log(kLoad);
    return PortableField::Load(p);
  }
  static void Store(const Elem& e, U256* p) {
    Log(kStore);
    PortableField::Store(e, p);
  }
  // The scans read (and log) every entry, keeping the one idx names.
  static void ScanShared(const Point::Affine* row, int count, Idx idx,
                         Elem* x, Elem* y) {
    const auto window = static_cast<uint32_t>(
        (row - g_table) / FixedBaseTable::kEntries);
    Log(kScanShared, window);
    *x = Zero();
    *y = Zero();
    for (int j = 0; j < count; j++) {
      Log(kEntry, static_cast<uint32_t>(j));
      const Mask m = PortableField::IdxEq(idx, j + 1);
      *x = PortableField::Select(m, row[j].x, *x);
      *y = PortableField::Select(m, row[j].y, *y);
    }
  }
  static void ScanLane(const Elem* tx, const Elem* ty, int count, Idx idx,
                       Elem* x, Elem* y) {
    Log(kScanLane, static_cast<uint32_t>(count));
    Log(kEntry, 0);
    *x = tx[0];
    *y = ty[0];
    for (int j = 1; j < count; j++) {
      Log(kEntry, static_cast<uint32_t>(j));
      const Mask m = PortableField::IdxEq(idx, j);
      *x = PortableField::Select(m, tx[j], *x);
      *y = PortableField::Select(m, ty[j], *y);
    }
  }
};

#define ATOM_LANE_FN inline
#include "src/crypto/lane_kernel.inc"
#undef ATOM_LANE_FN

using Kernel = LaneKernel<RecordField>;

}  // namespace lane_record

namespace {

using lane_record::Kernel;

// The edge scalars of tests/p256_test.cpp (0, 1, 2, n - 1, n - 2, the
// 2^128 split edges, NAFs that carry into bit 256, the fixed-base table's
// carry digits), padded with seeded scalars to 1,000 + edges.
std::vector<Scalar> Scalars(Rng& rng) {
  const Scalar one = Scalar::One();
  const Scalar minus_one = Scalar::Zero() - one;
  auto pow2 = [](int k) {
    U256 e;
    e.v[k / 64] = uint64_t{1} << (k % 64);
    auto b = e.ToBytesBe();
    return Scalar::FromBytes(BytesView(b.data(), b.size())).value();
  };
  std::vector<Scalar> out = {
      Scalar::Zero(),       one,
      Scalar::FromU64(2),   Scalar::FromU64(6),
      Scalar::FromU64(32),  Scalar::FromU64(33),
      minus_one,            minus_one - one,
      minus_one - Scalar::FromU64(29),
      pow2(255),            pow2(255) + pow2(255) - pow2(251) + pow2(250) - one,
      pow2(128) - one,      pow2(128),
      pow2(127),            pow2(128) + one,
      pow2(252) - one,
  };
  for (int i = 0; i < 1000; i++) {
    out.push_back(Scalar::Random(rng));
  }
  return out;
}

// Runs `call` and returns its log.
template <typename Call>
std::vector<uint32_t> Record(Call call) {
  std::vector<uint32_t> log;
  lane_record::g_log = &log;
  call();
  lane_record::g_log = nullptr;
  return log;
}

TEST(LaneSchedule, FixedBaseLogIsIdenticalForEveryScalarAndTable) {
  Rng rng(uint64_t{61});
  const std::vector<Scalar> scalars = Scalars(rng);
  const Scalar log_b = Scalar::Random(rng);
  const FixedBaseTable other(Point::BaseMul(log_b));
  std::vector<uint32_t> first;
  for (size_t at = 0; at + kLaneChunk <= scalars.size(); at += kLaneChunk) {
    const std::span<const Scalar> ks(scalars.data() + at, kLaneChunk);
    for (const FixedBaseTable* table : {&Point::GeneratorTable(), &other}) {
      std::vector<Point> out(kLaneChunk);
      lane_record::g_table = LaneAccess::Row(*table, 0);
      const auto log = Record([&] { Kernel::FixedBaseAll(*table, ks, out); });
      if (first.empty()) {
        first = log;
        ASSERT_FALSE(first.empty());
      }
      ASSERT_EQ(log, first) << "scalars from " << at;
      for (size_t i = 0; i < kLaneChunk; i++) {
        const Scalar k = table == &other ? log_b * ks[i] : ks[i];
        ASSERT_EQ(out[i], Point::BaseMul(k)) << at + i;
      }
    }
  }
}

TEST(LaneSchedule, VariableBaseLogIsIdenticalForEveryScalarAndBase) {
  Rng rng(uint64_t{62});
  const std::vector<Scalar> scalars = Scalars(rng);
  std::vector<uint32_t> first;
  for (size_t at = 0; at + kLaneChunk <= scalars.size(); at += kLaneChunk) {
    // One shared scalar and one per lane; an identity base in some calls.
    std::vector<Scalar> logs(kLaneChunk);
    std::vector<Point> bases(kLaneChunk);
    for (size_t i = 0; i < kLaneChunk; i++) {
      logs[i] = (at / kLaneChunk + i) % 11 == 0 ? Scalar::Zero()
                                                : Scalar::Random(rng);
      bases[i] = logs[i].IsZero() ? Point::Infinity() : Point::BaseMul(logs[i]);
    }
    const Scalar& shared = scalars[(at * 7) % scalars.size()];
    const std::span<const Scalar> own(scalars.data() + at, kLaneChunk);
    std::vector<Point> out_s(kLaneChunk), out_o(kLaneChunk);
    const std::vector<std::span<const Scalar>> columns = {
        std::span(&shared, 1), own};
    const std::vector<std::span<Point>> outs = {out_s, out_o};
    const auto log =
        Record([&] { Kernel::VariableBaseAll(bases, columns, outs); });
    if (first.empty()) {
      first = log;
    }
    ASSERT_EQ(log, first) << "scalars from " << at;
    for (size_t i = 0; i < kLaneChunk; i++) {
      ASSERT_EQ(out_s[i], Point::BaseMul(logs[i] * shared)) << at + i;
      ASSERT_EQ(out_o[i], Point::BaseMul(logs[i] * own[i])) << at + i;
    }
  }
}

TEST(LaneSchedule, SharedDigitMsmLogIsIdenticalForEveryScalarAndBase) {
  Rng rng(uint64_t{63});
  const std::vector<Scalar> scalars = Scalars(rng);
  constexpr size_t kTerms = 8, kMsms = 7;  // a dialing_nizk t3/t4 call
  std::vector<uint32_t> first;
  for (size_t at = 0; at + kTerms <= scalars.size(); at += kTerms) {
    const std::span<const Scalar> w(scalars.data() + at, kTerms);
    std::vector<Scalar> logs(kMsms * kTerms);
    std::vector<Point> bases(kMsms * kTerms);
    for (size_t i = 0; i < bases.size(); i++) {
      // Identity bases and a repeated base in some calls.
      logs[i] = (at + i) % 13 == 0  ? Scalar::Zero()
                : i > 0 && (at + i) % 7 == 0 ? logs[i - 1]
                                    : Scalar::Random(rng);
      bases[i] = logs[i].IsZero() ? Point::Infinity() : Point::BaseMul(logs[i]);
    }
    std::vector<Point> out(kMsms);
    const auto log = Record([&] { Kernel::MsmAll(bases, w, out); });
    if (first.empty()) {
      first = log;
    }
    ASSERT_EQ(log, first) << "scalars from " << at;
    for (size_t m = 0; m < kMsms; m++) {
      Scalar expect = Scalar::Zero();
      for (size_t t = 0; t < kTerms; t++) {
        expect = expect + logs[m * kTerms + t] * w[t];
      }
      ASSERT_EQ(out[m], Point::BaseMul(expect)) << at << " msm " << m;
    }
  }
}

}  // namespace
}  // namespace atom
