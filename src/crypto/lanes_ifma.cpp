// The 8-lane AVX-512 IFMA backend of the lane kernel (src/crypto/lanes.h).
//
// A field element of 8 lanes is five 512-bit vectors of radix-2^52 limbs,
// limb i of lane j in element j of vector i. Values stay fully reduced in
// fp256's Montgomery domain (x·2^256 mod p), so a lane's limbs are just the
// fp256 integer repacked and FixedBaseTable rows serve both backends.
//
// Mul is a Montgomery product with R = 2^260 of a and 16·b:
// a·16b·2^-260 = a·b·2^-256. 16·b < 16p < 2^260 fits the five limbs, and
// a·16b < p·2^260 keeps the result below 2p, so one masked subtraction of
// p reduces it. The full 10-limb product comes first, then five reduction
// rounds that use p's special form (Redc): 50 madds for the product and
// 10 for the reduction. Sqr computes 16a² from the 15 distinct limb
// products (30 madds) into the same reduction. Add and Sub propagate
// carries limb to limb and correct by ±p under a mask.
//
// Everything with vector code carries the target attribute below and lives
// in this file's own namespace: no -m flag, and no shared inline function
// is emitted with AVX-512 instructions. Non-x86-64 builds compile none of
// it.
#include "src/crypto/lanes.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ATOM_LANES_IFMA 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#include <algorithm>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "src/util/check.h"

namespace atom {

#if ATOM_LANES_IFMA

namespace lane_ifma {

#define ATOM_LANE_FN inline __attribute__((target("avx512f,avx512ifma")))

struct IfmaField {
  static constexpr int kLanes = 8;
  struct Elem {
    __m512i l[5];
  };
  using Mask = __mmask8;
  using Idx = __m512i;

  static constexpr uint64_t kMask52 = (uint64_t{1} << 52) - 1;
  // p in radix 2^52 (limb 2 is zero).
  static constexpr uint64_t kP[5] = {0xfffffffffffffULL, 0xfffffffffffULL, 0,
                                     0x1000000000ULL, 0xffffffff0000ULL};

  ATOM_LANE_FN static __m512i M52() { return _mm512_set1_epi64(kMask52); }
  ATOM_LANE_FN static __m512i P(int i) {
    return _mm512_set1_epi64(static_cast<long long>(kP[i]));
  }

  // Four 64-bit limbs per lane to five 52-bit limbs, and back.
  ATOM_LANE_FN static Elem From64(const __m512i a[4]) {
    const __m512i m = M52();
    Elem e;
    e.l[0] = _mm512_and_si512(a[0], m);
    e.l[1] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(a[0], 52), _mm512_slli_epi64(a[1], 12)),
        m);
    e.l[2] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(a[1], 40), _mm512_slli_epi64(a[2], 24)),
        m);
    e.l[3] = _mm512_and_si512(
        _mm512_or_si512(_mm512_srli_epi64(a[2], 28), _mm512_slli_epi64(a[3], 36)),
        m);
    e.l[4] = _mm512_srli_epi64(a[3], 16);
    return e;
  }
  ATOM_LANE_FN static void To64(const Elem& e, __m512i a[4]) {
    a[0] = _mm512_or_si512(e.l[0], _mm512_slli_epi64(e.l[1], 52));
    a[1] = _mm512_or_si512(_mm512_srli_epi64(e.l[1], 12),
                           _mm512_slli_epi64(e.l[2], 40));
    a[2] = _mm512_or_si512(_mm512_srli_epi64(e.l[2], 24),
                           _mm512_slli_epi64(e.l[3], 28));
    a[3] = _mm512_or_si512(_mm512_srli_epi64(e.l[3], 36),
                           _mm512_slli_epi64(e.l[4], 16));
  }

  ATOM_LANE_FN static Elem Broadcast(const U256& v) {
    __m512i a[4];
    for (int i = 0; i < 4; i++) {
      a[i] = _mm512_set1_epi64(static_cast<long long>(v.v[i]));
    }
    return From64(a);
  }
  ATOM_LANE_FN static Elem Zero() {
    Elem e;
    for (auto& l : e.l) {
      l = _mm512_setzero_si512();
    }
    return e;
  }
  ATOM_LANE_FN static Elem One() { return Broadcast(fp256::kOne); }

  ATOM_LANE_FN static Elem Load(const U256* p) {
    alignas(64) uint64_t t[4][8];
    for (int j = 0; j < 8; j++) {
      for (int i = 0; i < 4; i++) {
        t[i][j] = p[j].v[i];
      }
    }
    __m512i a[4];
    for (int i = 0; i < 4; i++) {
      a[i] = _mm512_load_si512(t[i]);
    }
    return From64(a);
  }
  ATOM_LANE_FN static void Store(const Elem& e, U256* p) {
    __m512i a[4];
    To64(e, a);
    alignas(64) uint64_t t[4][8];
    for (int i = 0; i < 4; i++) {
      _mm512_store_si512(t[i], a[i]);
    }
    for (int j = 0; j < 8; j++) {
      for (int i = 0; i < 4; i++) {
        p[j].v[i] = t[i][j];
      }
    }
  }

  // Unsigned carry propagation: limbs 0..3 below 2^52, limb 4 takes the
  // rest.
  ATOM_LANE_FN static void Carry(__m512i t[5]) {
    const __m512i m = M52();
    for (int i = 0; i < 4; i++) {
      t[i + 1] = _mm512_add_epi64(t[i + 1], _mm512_srli_epi64(t[i], 52));
      t[i] = _mm512_and_si512(t[i], m);
    }
  }

  // t mod p for a carried t < 2p: t - p, or t where that borrows.
  ATOM_LANE_FN static Elem CondSubP(const __m512i t[5]) {
    const __m512i m = M52();
    __m512i d[5];
    d[0] = _mm512_sub_epi64(t[0], P(0));
    for (int i = 1; i < 5; i++) {
      d[i] = _mm512_add_epi64(_mm512_sub_epi64(t[i], P(i)),
                              _mm512_srai_epi64(d[i - 1], 52));
      d[i - 1] = _mm512_and_si512(d[i - 1], m);
    }
    const Mask borrow = _mm512_cmplt_epi64_mask(d[4], _mm512_setzero_si512());
    Elem e;
    for (int i = 0; i < 5; i++) {
      e.l[i] = _mm512_mask_blend_epi64(borrow, d[i], t[i]);
    }
    return e;
  }

  // t·2^-260 mod p for a 10-limb t with limbs below 2^61, returned below
  // 2p for t < p·2^260 and then reduced. Five rounds, each with quotient
  // q = t_i mod 2^52 (-p^-1 is 1 mod 2^52), add q·p and drop limb i. p's
  // special form, p = 2^256 - 2^224 + 2^192 + 2^96 - 1, leaves one limb
  // product per round: t_i - q carries t_i >> 52 up; q·2^96 is q·2^44 one
  // limb up and q·2^192 is q·2^36 three limbs up, each split at 52 bits
  // by shifts; only q·p_4 takes a madd52lo/hi pair. A round adds less
  // than 2^53 to any limb, so the limbs stay below 2^62.
  ATOM_LANE_FN static Elem Redc(__m512i t[10]) {
    const __m512i m = M52();
    for (int i = 0; i < 5; i++) {
      const __m512i q = _mm512_and_si512(t[i], m);
      t[i + 1] = _mm512_add_epi64(
          t[i + 1],
          _mm512_add_epi64(_mm512_srli_epi64(t[i], 52),
                           _mm512_and_si512(_mm512_slli_epi64(q, 44), m)));
      t[i + 2] = _mm512_add_epi64(t[i + 2], _mm512_srli_epi64(q, 8));
      t[i + 3] = _mm512_add_epi64(
          t[i + 3], _mm512_and_si512(_mm512_slli_epi64(q, 36), m));
      t[i + 4] = _mm512_madd52lo_epu64(
          _mm512_add_epi64(t[i + 4], _mm512_srli_epi64(q, 16)), q, P(4));
      t[i + 5] = _mm512_madd52hi_epu64(t[i + 5], q, P(4));
    }
    Carry(t + 5);
    return CondSubP(t + 5);
  }

  // a·16b reduced: the 5×5 limb products summed by column, low halves in
  // column i + j and high halves in i + j + 1, in separate accumulators.
  // A column sums at most 10 halves below 2^52. Every loop here has a
  // constant trip count, so the compiler unrolls it and keeps the columns
  // in registers.
  ATOM_LANE_FN static Elem Mul(const Elem& a, const Elem& b) {
    const __m512i m = M52();
    // 16·b: b shifted four bits up across the limbs.
    __m512i b16[5];
    b16[0] = _mm512_and_si512(_mm512_slli_epi64(b.l[0], 4), m);
    for (int i = 1; i < 5; i++) {
      b16[i] = _mm512_and_si512(
          _mm512_or_si512(_mm512_slli_epi64(b.l[i], 4),
                          _mm512_srli_epi64(b.l[i - 1], 48)),
          m);
    }
    const __m512i zero = _mm512_setzero_si512();
    __m512i lo[9], hi[9];
    for (int k = 0; k < 9; k++) {
      lo[k] = zero;
      hi[k] = zero;
    }
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a.l[i], b16[j]);
        hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a.l[i], b16[j]);
      }
    }
    __m512i t[10];
    t[0] = lo[0];
    for (int k = 1; k < 9; k++) {
      t[k] = _mm512_add_epi64(lo[k], hi[k - 1]);
    }
    t[9] = hi[8];
    return Redc(t);
  }

  // 16a² reduced from the 15 distinct limb products: the cross products
  // a_i·a_j (i < j) summed by column and doubled, the squares a_i² added
  // in, and the column sums scaled by 16 (16a² < 16p² < p·2^260). A
  // column's doubled cross sum is below 2^55, so the scaled sum stays
  // below 2^60.
  ATOM_LANE_FN static Elem Sqr(const Elem& a) {
    const __m512i zero = _mm512_setzero_si512();
    __m512i lo[9], hi[9];
    for (int k = 0; k < 9; k++) {
      lo[k] = zero;
      hi[k] = zero;
    }
    for (int i = 0; i < 5; i++) {
      for (int j = 0; j < 5; j++) {
        if (j > i) {
          lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a.l[i], a.l[j]);
          hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a.l[i], a.l[j]);
        }
      }
    }
    __m512i t[10];
    t[0] = zero;
    for (int k = 1; k < 9; k++) {
      t[k] = _mm512_slli_epi64(_mm512_add_epi64(lo[k], hi[k - 1]), 1);
    }
    t[9] = zero;
    for (int i = 0; i < 5; i++) {
      t[2 * i] = _mm512_madd52lo_epu64(t[2 * i], a.l[i], a.l[i]);
      t[2 * i + 1] = _mm512_madd52hi_epu64(t[2 * i + 1], a.l[i], a.l[i]);
    }
    for (auto& limb : t) {
      limb = _mm512_slli_epi64(limb, 4);
    }
    return Redc(t);
  }

  ATOM_LANE_FN static Elem Add(const Elem& a, const Elem& b) {
    __m512i t[5];
    for (int i = 0; i < 5; i++) {
      t[i] = _mm512_add_epi64(a.l[i], b.l[i]);
    }
    Carry(t);
    return CondSubP(t);
  }

  ATOM_LANE_FN static Elem Sub(const Elem& a, const Elem& b) {
    const __m512i m = M52();
    __m512i d[5], e[5];
    d[0] = _mm512_sub_epi64(a.l[0], b.l[0]);
    for (int i = 1; i < 5; i++) {
      d[i] = _mm512_add_epi64(_mm512_sub_epi64(a.l[i], b.l[i]),
                              _mm512_srai_epi64(d[i - 1], 52));
      d[i - 1] = _mm512_and_si512(d[i - 1], m);
    }
    const Mask borrow = _mm512_cmplt_epi64_mask(d[4], _mm512_setzero_si512());
    for (int i = 0; i < 5; i++) {
      e[i] = _mm512_add_epi64(d[i], P(i));
    }
    Carry(e);
    Elem out;
    for (int i = 0; i < 5; i++) {
      out.l[i] = _mm512_mask_blend_epi64(borrow, d[i], e[i]);
    }
    return out;
  }
  ATOM_LANE_FN static Elem Neg(const Elem& a) { return Sub(Zero(), a); }

  ATOM_LANE_FN static Elem Select(Mask m, const Elem& a, const Elem& b) {
    Elem e;
    for (int i = 0; i < 5; i++) {
      e.l[i] = _mm512_mask_blend_epi64(m, b.l[i], a.l[i]);
    }
    return e;
  }
  ATOM_LANE_FN static Mask IsZero(const Elem& a) {
    __m512i o = a.l[0];
    for (int i = 1; i < 5; i++) {
      o = _mm512_or_si512(o, a.l[i]);
    }
    return _mm512_cmpeq_epi64_mask(o, _mm512_setzero_si512());
  }
  ATOM_LANE_FN static Idx LoadIdx(const uint8_t* p) {
    return _mm512_cvtepu8_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  ATOM_LANE_FN static Mask LoadMask(const uint8_t* p) {
    const Idx v = LoadIdx(p);
    return _mm512_test_epi64_mask(v, v);
  }
  ATOM_LANE_FN static Mask IdxEq(const Idx& idx, int j) {
    return _mm512_cmpeq_epi64_mask(idx, _mm512_set1_epi64(j));
  }

  // Every lane reads every entry of the row; the blend keeps lane j's own.
  ATOM_LANE_FN static void ScanShared(const Point::Affine* row, int count,
                                      const Idx& idx, Elem* x, Elem* y) {
    __m512i ax[4], ay[4];
    for (int i = 0; i < 4; i++) {
      ax[i] = _mm512_setzero_si512();
      ay[i] = _mm512_setzero_si512();
    }
    for (int j = 0; j < count; j++) {
      const Mask m = IdxEq(idx, j + 1);
      for (int i = 0; i < 4; i++) {
        ax[i] = _mm512_mask_set1_epi64(
            ax[i], m, static_cast<long long>(row[j].x.v[i]));
        ay[i] = _mm512_mask_set1_epi64(
            ay[i], m, static_cast<long long>(row[j].y.v[i]));
      }
    }
    *x = From64(ax);
    *y = From64(ay);
  }
  ATOM_LANE_FN static void ScanLane(const Elem* tx, const Elem* ty, int count,
                                    const Idx& idx, Elem* x, Elem* y) {
    *x = tx[0];
    *y = ty[0];
    for (int j = 1; j < count; j++) {
      const Mask m = IdxEq(idx, j);
      *x = Select(m, tx[j], *x);
      *y = Select(m, ty[j], *y);
    }
  }

  // Word offsets of lane j's limb 0 in a[idx_j]: element b starts 40
  // words into a per b, and lane j is word j of each limb vector.
  ATOM_LANE_FN static __m512i Slots(const Idx& idx) {
    static_assert(sizeof(Elem) == 40 * sizeof(uint64_t));
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    return _mm512_add_epi64(
        _mm512_add_epi64(_mm512_slli_epi64(idx, 5), _mm512_slli_epi64(idx, 3)),
        lane);
  }
  ATOM_LANE_FN static Elem Gather(const Elem* a, const Idx& idx) {
    const __m512i at = Slots(idx);
    Elem e;
    for (int i = 0; i < 5; i++) {
      e.l[i] = _mm512_i64gather_epi64(at, a->l + i, 8);
    }
    return e;
  }
  ATOM_LANE_FN static void Scatter(Elem* a, const Idx& idx, Mask m,
                                   const Elem& e) {
    const __m512i at = Slots(idx);
    for (int i = 0; i < 5; i++) {
      _mm512_mask_i64scatter_epi64(a->l + i, m, at, e.l[i], 8);
    }
  }
};

#include "src/crypto/lane_kernel.inc"

// AVX512F and AVX512IFMA in CPUID leaf 7, and XCR0 showing the OS saves
// the SSE, AVX, opmask and both ZMM state components.
bool CpuHasIfma() {
  unsigned a, b, c, d;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & bit_OSXSAVE) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0 ||
      (b & bit_AVX512F) == 0 || (b & bit_AVX512IFMA) == 0) {
    return false;
  }
  uint32_t xcr0_lo, xcr0_hi;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr uint32_t kZmmState = 0xe6;
  return (xcr0_lo & kZmmState) == kZmmState;
}

template <LaneFieldOp kOp>
ATOM_LANE_FN void RunField(U256* x, const U256* bp, int reps) {
  using F = IfmaField;
  const F::Elem b = F::Load(bp);
  F::Elem v[4];
  for (int c = 0; c < 4; c++) {
    v[c] = F::Load(x + 8 * c);
  }
  for (int r = 0; r < reps; r++) {
    for (auto& e : v) {
      if constexpr (kOp == LaneFieldOp::kMul) {
        e = F::Mul(e, b);
      } else if constexpr (kOp == LaneFieldOp::kSqr) {
        e = F::Sqr(e);
      } else if constexpr (kOp == LaneFieldOp::kAdd) {
        e = F::Add(e, b);
      } else if constexpr (kOp == LaneFieldOp::kSub) {
        e = F::Sub(e, b);
      } else {
        e = F::Neg(e);
      }
    }
  }
  for (int c = 0; c < 4; c++) {
    F::Store(v[c], x + 8 * c);
  }
}
#undef ATOM_LANE_FN

}  // namespace lane_ifma

bool IfmaFieldRun(LaneFieldOp op, std::span<U256> x, std::span<const U256> b,
                  int reps) {
  ATOM_CHECK(x.size() == 32 && b.size() == 8);
  if (IfmaLanes() == nullptr) {
    return false;
  }
  using lane_ifma::RunField;
  switch (op) {
    case LaneFieldOp::kMul:
      RunField<LaneFieldOp::kMul>(x.data(), b.data(), reps);
      break;
    case LaneFieldOp::kSqr:
      RunField<LaneFieldOp::kSqr>(x.data(), b.data(), reps);
      break;
    case LaneFieldOp::kAdd:
      RunField<LaneFieldOp::kAdd>(x.data(), b.data(), reps);
      break;
    case LaneFieldOp::kSub:
      RunField<LaneFieldOp::kSub>(x.data(), b.data(), reps);
      break;
    case LaneFieldOp::kNeg:
      RunField<LaneFieldOp::kNeg>(x.data(), b.data(), reps);
      break;
  }
  return true;
}

const LaneBackend* IfmaLanes() {
  using Kernel = lane_ifma::LaneKernel<lane_ifma::IfmaField>;
  static const LaneBackend backend{
      "ifma",         Kernel::FixedBaseAll, Kernel::VariableBaseAll,
      Kernel::MsmAll, Kernel::Pippenger,    kPippengerMinIfma};
  static const bool available = lane_ifma::CpuHasIfma();
  return available ? &backend : nullptr;
}

#else

const LaneBackend* IfmaLanes() { return nullptr; }

bool IfmaFieldRun(LaneFieldOp, std::span<U256> x, std::span<const U256> b,
                  int) {
  ATOM_CHECK(x.size() == 32 && b.size() == 8);
  return false;
}

#endif

}  // namespace atom
