// The P-256 coordinate field F_p, p = 2^256 - 2^224 + 2^192 + 2^96 - 1,
// with arithmetic specialised to the shape of p.
//
// Elements are 4x64-bit limbs in Montgomery form with R = 2^256, always
// fully reduced into [0, p): exactly the representation the generic Mont
// class (src/crypto/mont.h) produces for this modulus, so every point
// coordinate, encoding and hash input is bit-identical to Mont(P256Prime()),
// which the tests keep as the oracle.
//
// What the special form buys:
//   - Montgomery reduction: p = -1 mod 2^64, so the per-limb quotient is the
//     limb itself (n0inv = 1), and u * p / 2^64 is (u << 32) plus
//     u * (2^64 - 2^32 + 1) two limbs up (p's limb 2 is zero): one 64x64
//     multiply per reduction round instead of four.
//   - Mul is a Comba (column-wise) 4x4 product into 8 limbs followed by
//     those four reduction rounds; Sqr computes each cross product once and
//     doubles it (10 multiplies instead of 16).
//   - Add/Sub/Neg and the final conditional subtraction run on add-with-
//     carry/subtract-with-borrow chains (AddCarry64/SubBorrow64) and add p
//     back under a mask, without branches.
//   - Inv (a^(p-2)) and Sqrt (a^((p+1)/4), valid because p = 3 mod 4) are
//     fixed addition chains: 255 squarings + 12 multiplies and 253 squarings
//     + 7 multiplies, against 256 squarings plus one multiply per set
//     exponent bit for generic square-and-multiply.
// Everything is header-inline, so Add/Sub/Neg (a few carry chains each)
// inline into the point formulas in p256.cpp. The compiler keeps the larger
// Mul/Sqr out of line; forcing them inline measured slower, because the
// point formulas then outgrow the instruction cache.
#ifndef SRC_CRYPTO_FP256_H_
#define SRC_CRYPTO_FP256_H_

#include <optional>
#include <span>
#include <vector>

#include "src/crypto/u256.h"

namespace atom::fp256 {

// The modulus, little-endian limbs.
inline constexpr U256 kP =
    U256::FromLimbs(0xffffffffffffffffULL, 0x00000000ffffffffULL,
                    0x0000000000000000ULL, 0xffffffff00000001ULL);
// 1 in Montgomery form: R mod p = 2^224 - 2^192 - 2^96 + 1.
inline constexpr U256 kOne =
    U256::FromLimbs(0x0000000000000001ULL, 0xffffffff00000000ULL,
                    0xffffffffffffffffULL, 0x00000000fffffffeULL);
// R^2 mod p, the ToMont multiplier.
inline constexpr U256 kR2 =
    U256::FromLimbs(0x0000000000000003ULL, 0xfffffffbffffffffULL,
                    0xfffffffffffffffeULL, 0x00000004fffffffdULL);

namespace internal {

// Three-limb column accumulator of a Comba product.
struct Comba {
  uint64_t c0 = 0, c1 = 0, c2 = 0;

  // acc += a * b, one unbroken add/adc/adc chain.
  void Add(uint64_t a, uint64_t b) {
    uint64_t hi;
    uint64_t lo = MulWide64(a, b, &hi);
    uint8_t c = AddCarry64(0, c0, lo, &c0);
    c = AddCarry64(c, c1, hi, &c1);
    AddCarry64(c, c2, 0, &c2);
  }

  // Emits the finished low limb and shifts the accumulator down a column.
  uint64_t Take() {
    uint64_t limb = c0;
    c0 = c1;
    c1 = c2;
    c2 = 0;
    return limb;
  }
};

// One Montgomery reduction round with quotient u = (the limb below t1):
// adds u * p / 2^64 into t1..t4 and returns the carry out of t4.
// `carry_in` is the previous round's carry, which belongs in t4; it joins
// the high product limb, which has room: hi(u * p3) <= 2^64 - 2^32.
inline uint8_t RedcRound(uint64_t u, uint8_t carry_in, uint64_t& t1,
                         uint64_t& t2, uint64_t& t3, uint64_t& t4) {
  uint64_t hi;
  uint64_t lo = MulWide64(u, kP.v[3], &hi);
  uint8_t c = AddCarry64(0, t1, u << 32, &t1);
  c = AddCarry64(c, t2, u >> 32, &t2);
  c = AddCarry64(c, t3, lo, &t3);
  return AddCarry64(c, t4, hi + carry_in, &t4);
}

// d + (p & mask) over four limbs, dropping the carry out.
inline U256 AddMaskedP(U256 d, uint64_t mask) {
  uint8_t c = AddCarry64(0, d.v[0], kP.v[0] & mask, &d.v[0]);
  c = AddCarry64(c, d.v[1], kP.v[1] & mask, &d.v[1]);
  c = AddCarry64(c, d.v[2], kP.v[2] & mask, &d.v[2]);
  AddCarry64(c, d.v[3], kP.v[3] & mask, &d.v[3]);
  return d;
}

// r mod p for r = top * 2^256 + (r3..r0) < 2p: subtracts p, then adds it
// back under a mask when the subtraction borrowed (r < p).
inline U256 CondSubP(uint64_t r0, uint64_t r1, uint64_t r2, uint64_t r3,
                     uint64_t top) {
  U256 d;
  uint8_t b = SubBorrow64(0, r0, kP.v[0], &d.v[0]);
  b = SubBorrow64(b, r1, kP.v[1], &d.v[1]);
  b = SubBorrow64(b, r2, kP.v[2], &d.v[2]);
  b = SubBorrow64(b, r3, kP.v[3], &d.v[3]);
  uint64_t unused;
  b = SubBorrow64(b, top, 0, &unused);
  return AddMaskedP(d, 0 - static_cast<uint64_t>(b));
}

// Montgomery reduction t * 2^-256 mod p of a 512-bit t < p * 2^256. The
// unreduced result is below 2p, so one carry bit above limb 7 suffices.
inline U256 Redc(uint64_t (&t)[8]) {
  uint8_t c = RedcRound(t[0], 0, t[1], t[2], t[3], t[4]);
  c = RedcRound(t[1], c, t[2], t[3], t[4], t[5]);
  c = RedcRound(t[2], c, t[3], t[4], t[5], t[6]);
  c = RedcRound(t[3], c, t[4], t[5], t[6], t[7]);
  return CondSubP(t[4], t[5], t[6], t[7], c);
}

}  // namespace internal

// Montgomery product a * b * R^-1 mod p. Needs b < p and a < 2^256.
inline U256 Mul(const U256& a, const U256& b) {
  internal::Comba acc;
  uint64_t t[8];
  acc.Add(a.v[0], b.v[0]);
  t[0] = acc.Take();
  acc.Add(a.v[0], b.v[1]);
  acc.Add(a.v[1], b.v[0]);
  t[1] = acc.Take();
  acc.Add(a.v[0], b.v[2]);
  acc.Add(a.v[1], b.v[1]);
  acc.Add(a.v[2], b.v[0]);
  t[2] = acc.Take();
  acc.Add(a.v[0], b.v[3]);
  acc.Add(a.v[1], b.v[2]);
  acc.Add(a.v[2], b.v[1]);
  acc.Add(a.v[3], b.v[0]);
  t[3] = acc.Take();
  acc.Add(a.v[1], b.v[3]);
  acc.Add(a.v[2], b.v[2]);
  acc.Add(a.v[3], b.v[1]);
  t[4] = acc.Take();
  acc.Add(a.v[2], b.v[3]);
  acc.Add(a.v[3], b.v[2]);
  t[5] = acc.Take();
  acc.Add(a.v[3], b.v[3]);
  t[6] = acc.Take();
  t[7] = acc.Take();
  return internal::Redc(t);
}

// Mul(a, a): the six cross products a_i * a_j (i < j) once, doubled by a
// one-bit shift, plus the four diagonal squares a_i^2. Written out limb by
// limb: the loop form compiles to slower code.
inline U256 Sqr(const U256& a) {
  uint64_t t[8], lo, hi, c;
  uint8_t k;
  // Row a0: a0 * (a1, a2, a3) into t1..t4.
  t[1] = MulWide64(a.v[0], a.v[1], &c);
  t[2] = MulWide64(a.v[0], a.v[2], &hi);
  k = AddCarry64(0, t[2], c, &t[2]);
  t[3] = MulWide64(a.v[0], a.v[3], &t[4]);
  k = AddCarry64(k, t[3], hi, &t[3]);
  AddCarry64(k, t[4], 0, &t[4]);
  // Row a1: a1 * (a2, a3) added at t3..t5.
  lo = MulWide64(a.v[1], a.v[2], &c);
  k = AddCarry64(0, t[3], lo, &t[3]);
  lo = MulWide64(a.v[1], a.v[3], &hi);
  AddCarry64(AddCarry64(0, lo, c, &lo), hi, 0, &hi);
  k = AddCarry64(k, t[4], lo, &t[4]);
  AddCarry64(k, hi, 0, &t[5]);
  // Row a2: a2 * a3 added at t5..t6.
  lo = MulWide64(a.v[2], a.v[3], &t[6]);
  k = AddCarry64(0, t[5], lo, &t[5]);
  AddCarry64(k, t[6], 0, &t[6]);
  // Double t1..t6 into t1..t7.
  t[7] = t[6] >> 63;
  t[6] = (t[6] << 1) | (t[5] >> 63);
  t[5] = (t[5] << 1) | (t[4] >> 63);
  t[4] = (t[4] << 1) | (t[3] >> 63);
  t[3] = (t[3] << 1) | (t[2] >> 63);
  t[2] = (t[2] << 1) | (t[1] >> 63);
  t[1] <<= 1;
  // Add the diagonal: a_i^2 at limbs 2i and 2i+1.
  t[0] = MulWide64(a.v[0], a.v[0], &hi);
  k = AddCarry64(0, t[1], hi, &t[1]);
  lo = MulWide64(a.v[1], a.v[1], &hi);
  k = AddCarry64(k, t[2], lo, &t[2]);
  k = AddCarry64(k, t[3], hi, &t[3]);
  lo = MulWide64(a.v[2], a.v[2], &hi);
  k = AddCarry64(k, t[4], lo, &t[4]);
  k = AddCarry64(k, t[5], hi, &t[5]);
  lo = MulWide64(a.v[3], a.v[3], &hi);
  k = AddCarry64(k, t[6], lo, &t[6]);
  AddCarry64(k, t[7], hi, &t[7]);
  return internal::Redc(t);
}

// Modular add/sub/negate of reduced operands (either representation).
inline U256 Add(const U256& a, const U256& b) {
  U256 s;
  uint64_t carry = U256Add(&s, a, b);
  return internal::CondSubP(s.v[0], s.v[1], s.v[2], s.v[3], carry);
}

inline U256 Sub(const U256& a, const U256& b) {
  U256 d;
  const uint64_t borrow = U256Sub(&d, a, b);
  return internal::AddMaskedP(d, 0 - borrow);
}

inline U256 Neg(const U256& a) { return Sub(U256::Zero(), a); }

// Plain <-> Montgomery conversions.
inline U256 ToMont(const U256& a) { return Mul(a, kR2); }

inline U256 FromMont(const U256& a) {
  uint64_t t[8] = {a.v[0], a.v[1], a.v[2], a.v[3], 0, 0, 0, 0};
  return internal::Redc(t);
}

// a^(2^n): n successive squarings.
inline U256 SqrN(U256 a, int n) {
  for (int i = 0; i < n; i++) {
    a = Sqr(a);
  }
  return a;
}

// Multiplicative inverse a^(p-2); a must be nonzero. The chain builds
// x_k = a^(2^k - 1) and assembles p - 2 = (2^64 - 2^32 + 1) * 2^192 +
// 2^96 - 3 from x15, x32 and x47 (mmcloughlin/addchain's chain for p-2).
inline U256 Inv(const U256& a) {
  ATOM_CHECK(!a.IsZero());
  U256 x2 = Mul(Sqr(a), a);
  U256 x3 = Mul(Sqr(x2), a);
  U256 x6 = Mul(SqrN(x3, 3), x3);
  U256 x12 = Mul(SqrN(x6, 6), x6);
  U256 x15 = Mul(SqrN(x12, 3), x3);
  U256 x16 = Mul(Sqr(x15), a);
  U256 x32 = Mul(SqrN(x16, 16), x16);
  U256 i53 = SqrN(x32, 15);
  U256 x47 = Mul(i53, x15);
  U256 t = Mul(SqrN(i53, 17), a);  // a^(2^64 - 2^32 + 1), p's top limb
  t = Mul(SqrN(t, 143), x47);
  t = Mul(SqrN(t, 47), x47);
  return Mul(SqrN(t, 2), a);
}

// Square root a^((p+1)/4) if a is a square (the candidate squares back to
// a), nullopt otherwise. (p+1)/4 = (2^64 - 2^32 + 1) * 2^190 + 2^94.
inline std::optional<U256> Sqrt(const U256& a) {
  U256 x2 = Mul(Sqr(a), a);
  U256 x4 = Mul(SqrN(x2, 2), x2);
  U256 x8 = Mul(SqrN(x4, 4), x4);
  U256 x16 = Mul(SqrN(x8, 8), x8);
  U256 x32 = Mul(SqrN(x16, 16), x16);
  U256 t = Mul(SqrN(x32, 32), a);
  t = Mul(SqrN(t, 96), a);
  t = SqrN(t, 94);
  if (Sqr(t) == a) {
    return t;
  }
  return std::nullopt;
}

// Montgomery's batch-inversion trick: inverts every element in place with
// one Inv plus 3(n-1) multiplications. Every element must be nonzero.
inline void BatchInv(std::span<U256> values) {
  if (values.empty()) {
    return;
  }
  // prefix[i] = values[0] * ... * values[i].
  std::vector<U256> prefix(values.size());
  ATOM_CHECK(!values[0].IsZero());
  prefix[0] = values[0];
  for (size_t i = 1; i < values.size(); i++) {
    ATOM_CHECK(!values[i].IsZero());
    prefix[i] = Mul(prefix[i - 1], values[i]);
  }
  // Invert the total once, then peel elements off the back:
  // inv(prefix[i]) * prefix[i-1] = inv(values[i]).
  U256 inv = Inv(prefix.back());
  for (size_t i = values.size() - 1; i > 0; i--) {
    U256 original = values[i];
    values[i] = Mul(inv, prefix[i - 1]);
    inv = Mul(inv, original);
  }
  values[0] = inv;
}

}  // namespace atom::fp256

#endif  // SRC_CRYPTO_FP256_H_
