#include "src/crypto/mont.h"

#include "src/crypto/fp256.h"

namespace atom {
namespace {

// -m^-1 mod 2^64 by Newton iteration (doubles correct bits each step).
uint64_t NegInv64(uint64_t m) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; i++) {
    inv *= 2 - m * inv;
  }
  return ~inv + 1;  // -inv
}

}  // namespace

Mont::Mont(const U256& modulus) : m_(modulus) {
  ATOM_CHECK((modulus.v[0] & 1) == 1);
  n0inv_ = NegInv64(modulus.v[0]);

  // R mod m via 256 modular doublings of 1; R^2 mod m via 256 more.
  U256 acc = U256::FromU64(1);
  for (int i = 0; i < 512; i++) {
    uint64_t carry = U256Add(&acc, acc, acc);
    if (carry != 0 || !U256Less(acc, m_)) {
      U256Sub(&acc, acc, m_);
    }
    if (i == 255) {
      r_ = acc;
    }
  }
  r2_ = acc;
}

U256 Mont::Mul(const U256& a, const U256& b) const {
  // CIOS Montgomery multiplication; t has 4 + 2 limbs of headroom.
  uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; i++) {
    // t += a[i] * b
    uint64_t carry = 0;
    for (int j = 0; j < 4; j++) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a.v[i]) * b.v[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    unsigned __int128 cur = static_cast<unsigned __int128>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(cur);
    t[5] = static_cast<uint64_t>(cur >> 64);

    // Reduce: t = (t + u*m) / 2^64 with u chosen so the low limb cancels.
    uint64_t u = t[0] * n0inv_;
    cur = static_cast<unsigned __int128>(u) * m_.v[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (int j = 1; j < 4; j++) {
      cur = static_cast<unsigned __int128>(u) * m_.v[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    cur = static_cast<unsigned __int128>(t[4]) + carry;
    t[3] = static_cast<uint64_t>(cur);
    t[4] = t[5] + static_cast<uint64_t>(cur >> 64);
    t[5] = 0;
  }

  U256 out = U256::FromLimbs(t[0], t[1], t[2], t[3]);
  if (t[4] != 0 || !U256Less(out, m_)) {
    U256Sub(&out, out, m_);
  }
  return out;
}

U256 Mont::Add(const U256& a, const U256& b) const {
  U256 out;
  uint64_t carry = U256Add(&out, a, b);
  if (carry != 0 || !U256Less(out, m_)) {
    U256Sub(&out, out, m_);
  }
  return out;
}

U256 Mont::Sub(const U256& a, const U256& b) const {
  U256 out;
  uint64_t borrow = U256Sub(&out, a, b);
  if (borrow != 0) {
    U256Add(&out, out, m_);
  }
  return out;
}

U256 Mont::Neg(const U256& a) const {
  if (a.IsZero()) {
    return a;
  }
  U256 out;
  U256Sub(&out, m_, a);
  return out;
}

U256 Mont::Pow(const U256& base, const U256& exp) const {
  U256 result = r_;  // 1 in Montgomery form
  U256 acc = base;
  for (int i = 0; i < 256; i++) {
    if (exp.Bit(i) != 0) {
      result = Mul(result, acc);
    }
    acc = Mul(acc, acc);
  }
  return result;
}

U256 Mont::Inv(const U256& a) const {
  ATOM_CHECK(!a.IsZero());
  U256 exp;
  U256Sub(&exp, m_, U256::FromU64(2));
  return Pow(a, exp);
}

U256 Mont::Reduce(const U256& a) const {
  U256 out = a;
  while (!U256Less(out, m_)) {
    U256Sub(&out, out, m_);
  }
  return out;
}

namespace {

// NIST P-256 domain parameters (SEC 2 / FIPS 186-4), little-endian limbs.
// The prime p is fp256::kP.
const U256 kOrder = U256::FromLimbs(0xf3b9cac2fc632551ULL, 0xbce6faada7179e84ULL,
                                    0xffffffffffffffffULL, 0xffffffff00000000ULL);
const U256 kB = U256::FromLimbs(0x3bce3c3e27d2604bULL, 0x651d06b0cc53b0f6ULL,
                                0xb3ebbd55769886bcULL, 0x5ac635d8aa3a93e7ULL);
const U256 kGx = U256::FromLimbs(0xf4a13945d898c296ULL, 0x77037d812deb33a0ULL,
                                 0xf8bce6e563a440f2ULL, 0x6b17d1f2e12c4247ULL);
const U256 kGy = U256::FromLimbs(0xcbb6406837bf51f5ULL, 0x2bce33576b315eceULL,
                                 0x8ee7eb4a7c0f9e16ULL, 0x4fe342e2fe1a7f9bULL);

}  // namespace

const Mont& FieldN() {
  static const Mont ctx(kOrder);
  return ctx;
}

const U256& P256Prime() { return fp256::kP; }
const U256& P256Order() { return kOrder; }
const U256& P256B() { return kB; }
const U256& P256Gx() { return kGx; }
const U256& P256Gy() { return kGy; }

}  // namespace atom
