// Montgomery-form modular arithmetic over an odd 256-bit modulus.
//
// Generic over the modulus: it serves the P-256 scalar field F_n (the group
// order) behind Scalar. The coordinate field F_p has its own specialised
// implementation (src/crypto/fp256.h) that uses this same representation;
// the tests keep Mont(P256Prime()) as that implementation's oracle. All
// derived constants (n0inv, R², R) are computed in the constructor rather
// than hard-coded, so a transcription error in a modulus constant is caught
// by the known-answer tests instead of silently corrupting arithmetic.
#ifndef SRC_CRYPTO_MONT_H_
#define SRC_CRYPTO_MONT_H_

#include "src/crypto/u256.h"

namespace atom {

class Mont {
 public:
  // `modulus` must be odd and > 2^192 (true for both P-256 moduli).
  explicit Mont(const U256& modulus);

  const U256& modulus() const { return m_; }
  // 1 in Montgomery form (R mod m).
  const U256& one() const { return r_; }

  // Conversions between plain and Montgomery representation.
  U256 ToMont(const U256& a) const { return Mul(a, r2_); }
  U256 FromMont(const U256& a) const { return Mul(a, U256::FromU64(1)); }

  // Montgomery product: a * b * R^-1 mod m. Inputs/outputs in Montgomery form.
  U256 Mul(const U256& a, const U256& b) const;

  // Modular add/sub/negate (representation-agnostic: work for both forms).
  U256 Add(const U256& a, const U256& b) const;
  U256 Sub(const U256& a, const U256& b) const;
  U256 Neg(const U256& a) const;

  // base^exp mod m. `base` in Montgomery form, `exp` a plain integer.
  U256 Pow(const U256& base, const U256& exp) const;

  // Multiplicative inverse via Fermat's little theorem (modulus must be
  // prime, which holds for both P-256 moduli). a must be nonzero.
  U256 Inv(const U256& a) const;

  // Reduces a plain 256-bit value mod m (at most one subtraction is needed
  // because both moduli exceed 2^255).
  U256 Reduce(const U256& a) const;

 private:
  U256 m_;
  U256 r_;       // R mod m
  U256 r2_;      // R^2 mod m
  uint64_t n0inv_;  // -m^-1 mod 2^64
};

// The scalar field context (modulus: the group order n). Initialized on
// first use.
const Mont& FieldN();

// P-256 curve constants (plain form).
const U256& P256Prime();  // p = 2^256 - 2^224 + 2^192 + 2^96 - 1
const U256& P256Order();
const U256& P256B();
const U256& P256Gx();
const U256& P256Gy();

}  // namespace atom

#endif  // SRC_CRYPTO_MONT_H_
