// The portable field-lane backend of the lane kernel (src/crypto/lanes.h):
// one lane per vector, today's fp256 field. Every selection is a mask
// (all ones or zero) applied limb by limb, and every comparison is computed
// arithmetically, so the backend adds no branch of its own.
//
// The kernel's backend interface, which src/crypto/lanes_ifma.cpp
// implements for 8 lanes:
//   kLanes                     lanes per vector
//   Elem                       one field element per lane, fp256's
//                              Montgomery form (R = 2^256), fully reduced
//   Mask                       one flag per lane; combined with & | ~
//   Idx                        one small table index per lane
//   Zero(), One()              broadcast constants
//   Mul Sqr Add Sub Neg        lane-wise field ops
//   Select(m, a, b)            m ? a : b per lane
//   IsZero(a)                  lanes where a == 0
//   LoadIdx(p), LoadMask(p)    from kLanes bytes (a mask byte is 0 or 1)
//   IdxEq(idx, j)              lanes whose index is j
//   Load(p), Store(e, p)       from/to kLanes U256s
//   Broadcast(v)               one U256 in every lane
//   Gather(a, idx)             lane j of a[idx_j] in lane j
//   Scatter(a, idx, m, e)      lane j of a[idx_j] = lane j of e, on the
//                              lanes of m (variable time: Pippenger only)
//   ScanShared(row, count, idx, x, y)
//                              x, y = row[idx - 1] per lane (zero where
//                              idx is 0), reading all `count` entries
//   ScanLane(tx, ty, count, idx, x, y)
//                              x, y = tx[idx], ty[idx] per lane, reading
//                              all `count` entries
#ifndef SRC_CRYPTO_LANE_PORTABLE_H_
#define SRC_CRYPTO_LANE_PORTABLE_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "src/crypto/fp256.h"
#include "src/crypto/p256.h"

namespace atom {

struct PortableField {
  static constexpr int kLanes = 1;
  using Elem = U256;
  using Mask = uint64_t;
  using Idx = uint64_t;

  static Elem Zero() { return U256::Zero(); }
  static Elem One() { return fp256::kOne; }
  static Elem Mul(const Elem& a, const Elem& b) { return fp256::Mul(a, b); }
  static Elem Sqr(const Elem& a) { return fp256::Sqr(a); }
  static Elem Add(const Elem& a, const Elem& b) { return fp256::Add(a, b); }
  static Elem Sub(const Elem& a, const Elem& b) { return fp256::Sub(a, b); }
  static Elem Neg(const Elem& a) { return fp256::Neg(a); }

  static Elem Select(Mask m, const Elem& a, const Elem& b) {
    return U256{{(a.v[0] & m) | (b.v[0] & ~m), (a.v[1] & m) | (b.v[1] & ~m),
                 (a.v[2] & m) | (b.v[2] & ~m), (a.v[3] & m) | (b.v[3] & ~m)}};
  }
  // All ones when w == 0: (w | -w) has its top bit set for any other w.
  static Mask ZeroWord(uint64_t w) { return ((w | (0 - w)) >> 63) - 1; }
  static Mask IsZero(const Elem& a) {
    return ZeroWord(a.v[0] | a.v[1] | a.v[2] | a.v[3]);
  }
  static Idx LoadIdx(const uint8_t* p) { return p[0]; }
  static Mask LoadMask(const uint8_t* p) { return 0 - Mask{p[0]}; }
  static Mask IdxEq(Idx idx, int j) {
    return ZeroWord(idx ^ static_cast<uint64_t>(j));
  }
  static Elem Load(const U256* p) { return p[0]; }
  static void Store(const Elem& e, U256* p) { p[0] = e; }
  static Elem Broadcast(const U256& v) { return v; }
  static Elem Gather(const Elem* a, Idx idx) { return a[idx]; }
  static void Scatter(Elem* a, Idx idx, Mask m, const Elem& e) {
    if (m != 0) {
      a[idx] = e;
    }
  }

  // Both scans OR every entry in under its mask (exactly one matches a
  // nonzero idx in ScanShared, and one always matches in ScanLane).
  static void ScanShared(const Point::Affine* row, int count, Idx idx,
                         Elem* x, Elem* y) {
    Scan(count, idx, 1, x, y,
         [row](int e) { return std::pair(&row[e].x, &row[e].y); });
  }
  static void ScanLane(const Elem* tx, const Elem* ty, int count, Idx idx,
                       Elem* x, Elem* y) {
    Scan(count, idx, 0, x, y,
         [tx, ty](int e) { return std::pair(&tx[e], &ty[e]); });
  }

  // x, y = entry(j) for the j < count with j + first == idx, reading every
  // entry; entry(j) gives pointers to its x and y.
  template <typename Entry>
  static void Scan(int count, Idx idx, int first, Elem* x, Elem* y,
                   Entry entry) {
    // Two-word vectors (GCC/Clang vector extensions): the compiler emits
    // 128-bit ops where the target has them (SSE2 on x86-64, NEON) and
    // word ops elsewhere. On a 4-vCPU Xeon (gcc 12) a portable fixed-base
    // product took ~14 us this way and 16-27 us with word-at-a-time
    // loops; the scan is ~20% of it even so. The index compare runs in
    // 32-bit lanes, which every such target compares natively.
    using Words = uint64_t __attribute__((vector_size(16)));
    using Index = uint32_t __attribute__((vector_size(16)));
    const auto want = static_cast<uint32_t>(idx);
    const auto start = static_cast<uint32_t>(first);
    const Index wants = {want, want, want, want}, ones = {1, 1, 1, 1};
    Index j = {start, start, start, start};
    Words acc[4] = {};
    for (int e = 0; e < count; e++, j += ones) {
      const Words m = reinterpret_cast<Words>(j == wants);
      const auto [ex, ey] = entry(e);
      Words v[4];
      std::memcpy(v, ex->v, sizeof(ex->v));
      std::memcpy(v + 2, ey->v, sizeof(ey->v));
      for (int k = 0; k < 4; k++) {
        acc[k] |= v[k] & m;
      }
    }
    std::memcpy(x->v, acc, sizeof(x->v));
    std::memcpy(y->v, acc + 2, sizeof(y->v));
  }
};

}  // namespace atom

#endif  // SRC_CRYPTO_LANE_PORTABLE_H_
