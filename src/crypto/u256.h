// Fixed-width 256-bit unsigned integers: 4 little-endian 64-bit limbs.
// This is the raw-integer layer under the P-256 coordinate field
// (src/crypto/fp256.h), the generic Montgomery field (src/crypto/mont.h) and
// the P-256 implementation. Header-only; all operations are branch-light and
// allocation-free.
#ifndef SRC_CRYPTO_U256_H_
#define SRC_CRYPTO_U256_H_

#include <array>
#include <cstdint>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/util/bytes.h"
#include "src/util/check.h"

namespace atom {

struct U256 {
  // v[0] is the least significant limb.
  uint64_t v[4] = {0, 0, 0, 0};

  static constexpr U256 Zero() { return U256{}; }

  static constexpr U256 FromU64(uint64_t x) { return U256{{x, 0, 0, 0}}; }

  static constexpr U256 FromLimbs(uint64_t l0, uint64_t l1, uint64_t l2,
                                  uint64_t l3) {
    return U256{{l0, l1, l2, l3}};
  }

  constexpr bool IsZero() const {
    return (v[0] | v[1] | v[2] | v[3]) == 0;
  }

  constexpr bool operator==(const U256& o) const {
    return v[0] == o.v[0] && v[1] == o.v[1] && v[2] == o.v[2] && v[3] == o.v[3];
  }

  // Returns bit i (0 = least significant).
  constexpr int Bit(int i) const {
    return static_cast<int>((v[i / 64] >> (i % 64)) & 1);
  }

  // Big-endian 32-byte encoding (standard for EC coordinates and scalars).
  std::array<uint8_t, 32> ToBytesBe() const {
    std::array<uint8_t, 32> out;
    for (int limb = 0; limb < 4; limb++) {
      for (int b = 0; b < 8; b++) {
        out[static_cast<size_t>(31 - 8 * limb - b)] =
            static_cast<uint8_t>(v[limb] >> (8 * b));
      }
    }
    return out;
  }

  static U256 FromBytesBe(BytesView bytes) {
    ATOM_CHECK(bytes.size() == 32);
    U256 out;
    for (int limb = 0; limb < 4; limb++) {
      uint64_t acc = 0;
      for (int b = 7; b >= 0; b--) {
        acc = (acc << 8) |
              bytes[static_cast<size_t>(31 - 8 * limb - b)];
      }
      out.v[limb] = acc;
    }
    return out;
  }
};

// Carry-chain primitives: *out = a + b + carry (resp. a - b - borrow) with
// the carry/borrow in and out as 0 or 1. On x86-64 they are the adc/sbb
// intrinsics, which compilers chain through the flags register.
#if defined(__x86_64__)
inline uint8_t AddCarry64(uint8_t carry, uint64_t a, uint64_t b,
                          uint64_t* out) {
  unsigned long long r;
  carry = _addcarry_u64(carry, a, b, &r);
  *out = r;
  return carry;
}
inline uint8_t SubBorrow64(uint8_t borrow, uint64_t a, uint64_t b,
                           uint64_t* out) {
  unsigned long long r;
  borrow = _subborrow_u64(borrow, a, b, &r);
  *out = r;
  return borrow;
}
#else
inline uint8_t AddCarry64(uint8_t carry, uint64_t a, uint64_t b,
                          uint64_t* out) {
  unsigned __int128 s = static_cast<unsigned __int128>(a) + b + carry;
  *out = static_cast<uint64_t>(s);
  return static_cast<uint8_t>(s >> 64);
}
inline uint8_t SubBorrow64(uint8_t borrow, uint64_t a, uint64_t b,
                           uint64_t* out) {
  unsigned __int128 d = static_cast<unsigned __int128>(a) - b - borrow;
  *out = static_cast<uint64_t>(d);
  return static_cast<uint8_t>((d >> 64) & 1);
}
#endif

// 128-bit product a * b: returns the low limb, stores the high limb.
inline uint64_t MulWide64(uint64_t a, uint64_t b, uint64_t* hi) {
  unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  *hi = static_cast<uint64_t>(p >> 64);
  return static_cast<uint64_t>(p);
}

// out = a + b; returns the carry bit. `out` may alias a or b.
inline uint64_t U256Add(U256* out, const U256& a, const U256& b) {
  uint8_t c = AddCarry64(0, a.v[0], b.v[0], &out->v[0]);
  c = AddCarry64(c, a.v[1], b.v[1], &out->v[1]);
  c = AddCarry64(c, a.v[2], b.v[2], &out->v[2]);
  return AddCarry64(c, a.v[3], b.v[3], &out->v[3]);
}

// out = a - b; returns the borrow bit. `out` may alias a or b.
inline uint64_t U256Sub(U256* out, const U256& a, const U256& b) {
  uint8_t c = SubBorrow64(0, a.v[0], b.v[0], &out->v[0]);
  c = SubBorrow64(c, a.v[1], b.v[1], &out->v[1]);
  c = SubBorrow64(c, a.v[2], b.v[2], &out->v[2]);
  return SubBorrow64(c, a.v[3], b.v[3], &out->v[3]);
}

// a < b as 256-bit unsigned integers (the borrow out of a - b).
inline bool U256Less(const U256& a, const U256& b) {
  U256 diff;
  return U256Sub(&diff, a, b) != 0;
}

}  // namespace atom

#endif  // SRC_CRYPTO_U256_H_
