// NIST P-256 group operations: scalars mod the group order, Jacobian points,
// windowed scalar multiplication, Pippenger multi-scalar multiplication,
// hash-to-point, and reversible message-to-point embedding.
//
// This is the DDH group G from the paper (§5 uses NIST P-256 [6]); every
// cryptosystem in src/crypto builds on these two types. Point coordinates
// use the dedicated coordinate field of src/crypto/fp256.h (special-form
// Montgomery reduction, addition-chain inversion and square root); Scalar
// uses the generic Montgomery field FieldN() of src/crypto/mont.h.
//
// Hot-path tooling (see docs/architecture.md, "Crypto hot path"):
//   - FixedBaseTable: precomputed 4-bit windowed table for ANY fixed base
//     (group pk, entry pk, trustee pk, the generator itself). Entries are
//     normalized to affine once at build time so every lookup uses the
//     mixed Jacobian+affine addition (~8 field muls vs ~16 for the full
//     Jacobian add), and Mul needs no doublings at all. Point::Mul rebuilds
//     a 15-entry table per call — build a FixedBaseTable whenever the same
//     base is multiplied more than ~10 times.
//   - Point::BatchToAffine / EncodePoints: batch affine normalization and
//     SEC1 encoding with ONE field inversion per batch (Montgomery's
//     trick) instead of one ~255-squaring inversion chain per point.
#ifndef SRC_CRYPTO_P256_H_
#define SRC_CRYPTO_P256_H_

#include <optional>
#include <span>
#include <vector>

#include "src/crypto/fp256.h"
#include "src/crypto/mont.h"
#include "src/crypto/u256.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace atom {

// Scalar mod the P-256 group order n. Stored in Montgomery form; use the
// named constructors, never the raw field.
class Scalar {
 public:
  Scalar() = default;  // zero

  static Scalar Zero() { return Scalar(); }
  static Scalar One();
  static Scalar FromU64(uint64_t v);
  // Uniform scalar via rejection sampling (no modulo bias).
  static Scalar Random(Rng& rng);
  // Interprets 32 big-endian bytes, reduced mod n. Used for Fiat-Shamir
  // challenges (reduction bias is ~2^-224, negligible).
  static Scalar FromBytesReduced(BytesView bytes32);
  // Strict parse: rejects values >= n. Inverse of ToBytes.
  static std::optional<Scalar> FromBytes(BytesView bytes32);

  // 32-byte big-endian canonical encoding.
  std::array<uint8_t, 32> ToBytes() const;

  bool IsZero() const { return m_.IsZero(); }
  bool operator==(const Scalar& o) const { return m_ == o.m_; }

  Scalar operator+(const Scalar& o) const;
  Scalar operator-(const Scalar& o) const;
  Scalar operator*(const Scalar& o) const;
  Scalar Neg() const;
  // Multiplicative inverse; must be nonzero.
  Scalar Inv() const;

  // Plain (non-Montgomery) integer value, for bit extraction in scalar mult.
  U256 PlainValue() const;

 private:
  U256 m_;  // Montgomery form mod n
};

class FixedBaseTable;

// P-256 point in Jacobian coordinates (coordinates in Montgomery form).
// z == 0 encodes the identity.
class Point {
 public:
  Point() : x_(fp256::kOne), y_(fp256::kOne), z_() {}  // identity

  static Point Infinity() { return Point(); }
  static const Point& Generator();

  bool IsInfinity() const { return z_.IsZero(); }

  // Group operations.
  friend Point operator+(const Point& a, const Point& b);
  Point Double() const;
  Point Neg() const;
  friend Point operator-(const Point& a, const Point& b) { return a + b.Neg(); }

  // Variable-base scalar multiplication (4-bit window, rebuilds its window
  // table on every call). If the base repeats, use a FixedBaseTable.
  Point Mul(const Scalar& k) const;
  // Fixed-base multiplication by the generator (precomputed affine table).
  static Point BaseMul(const Scalar& k);
  // The precomputed table backing BaseMul, for APIs that take a table.
  static const FixedBaseTable& GeneratorTable();

  bool operator==(const Point& o) const;

  // Affine coordinates in plain form; must not be the identity.
  void ToAffine(U256* out_x, U256* out_y) const;

  // Batch affine normalization via Montgomery's trick: one field inversion
  // for the whole batch, bitwise identical results to per-point ToAffine.
  // Identity points come back flagged instead of with coordinates.
  struct AffineCoords {
    U256 x, y;
    bool infinity = false;
  };
  static std::vector<AffineCoords> BatchToAffine(
      std::span<const Point> points);

  // 33-byte encoding: SEC1 compressed (0x02/0x03 || x), or 33 zero bytes for
  // the identity.
  static constexpr size_t kEncodedSize = 33;
  Bytes Encode() const;
  // Validates the point is on the curve.
  static std::optional<Point> Decode(BytesView bytes33);

  bool IsOnCurve() const;

  // Constructs from affine coordinates in plain form (checked on-curve).
  static std::optional<Point> FromAffine(const U256& x, const U256& y);

 private:
  friend class FixedBaseTable;

  // Mixed-coordinate addition: `affine` must be the identity or have z == 1
  // (Montgomery one), which saves ~8 field multiplications over the general
  // Jacobian add. FixedBaseTable entries satisfy this by construction.
  static Point AddMixed(const Point& jacobian, const Point& affine);

  U256 x_, y_, z_;
};

// Precomputed 4-bit windowed table for one fixed base: table[w][d-1] holds
// (d << 4w) * base, normalized to affine with a single batched inversion at
// build time. Mul then needs only ~64 mixed additions and zero doublings —
// the same shape the generator tables always used, available for any base
// that repeats (group/entry/trustee public keys, rerandomization bases).
//
// Build cost is ~960 point adds plus one inversion, which amortizes after
// roughly ten generic Point::Mul calls. The table is ~92KB; hot callers
// cache one per round/epoch key rather than building per batch.
class FixedBaseTable {
 public:
  explicit FixedBaseTable(const Point& base);

  const Point& base() const { return base_; }

  // base * k. Identity base or zero scalar yields the identity, matching
  // Point::Mul exactly on every input.
  Point Mul(const Scalar& k) const;

 private:
  Point base_;
  Point table_[64][15];
};

// Concatenated 33-byte encodings of `points` — byte-identical to calling
// Encode() per point, but pays one field inversion for the whole batch
// instead of one per point.
Bytes EncodePoints(std::span<const Point> points);

// Sum of scalars[i] * points[i] (Pippenger bucket method).
Point MultiScalarMul(std::span<const Point> points,
                     std::span<const Scalar> scalars);

// Deterministic nothing-up-my-sleeve point: try-and-increment over
// SHA-256(label || counter). Nobody knows its discrete log w.r.t. any other
// generator produced with a different label.
Point HashToPoint(BytesView label);

// Reversible message embedding. Up to kEmbedCapacity bytes per point; the
// x-coordinate layout is [length | data | padding | try-counter].
inline constexpr size_t kEmbedCapacity = 30;
std::optional<Point> EmbedMessage(BytesView data);
std::optional<Bytes> ExtractMessage(const Point& p);

}  // namespace atom

#endif  // SRC_CRYPTO_P256_H_
