// NIST P-256 group operations: scalars mod the group order, Jacobian points,
// windowed scalar multiplication, multi-scalar multiplication (Straus below
// a measured crossover, Pippenger above it), hash-to-point, and reversible
// message-to-point embedding.
//
// This is the DDH group G from the paper (§5 uses NIST P-256 [6]); every
// cryptosystem in src/crypto builds on these two types. Point coordinates
// use the dedicated coordinate field of src/crypto/fp256.h (special-form
// Montgomery reduction, addition-chain inversion and square root); Scalar
// uses the generic Montgomery field FieldN() of src/crypto/mont.h.
//
// Hot-path tooling (see docs/architecture.md, "Crypto hot path"):
//   - FixedBaseTable: precomputed signed 6-bit window table for ANY fixed
//     base (group pk, entry pk, trustee pk, the generator itself). Entries
//     are affine (x, y) pairs, normalized once at build time, so every
//     lookup uses the mixed Jacobian+affine addition (11 field mul/sqr vs
//     16 for the full Jacobian add), and Mul needs no doublings at all.
//     Point::Mul rebuilds an 8-entry odd-multiple table per call; build a
//     FixedBaseTable whenever the same base is multiplied more than ~14
//     times.
//   - Point::Mul: width-5 NAF over the odd multiples P..15P, ~43
//     additions and ~255 doublings per product.
//   - MultiScalarMul: interleaved width-4 NAF (Straus) over one shared run
//     of doublings below the active lane backend's pippenger_min_points
//     terms (intake batches: Schnorr spans, EncProof vectors), the lane
//     kernel's window-parallel Pippenger from there (a hop's shuffle and
//     re-encryption proof checks; src/crypto/lanes.h). Both normalize
//     their inputs to affine with batched inversions so every per-point
//     addition is a mixed add.
//   - Point::BatchToAffine / EncodePoints: batch affine normalization and
//     SEC1 encoding with ONE field inversion per batch (Montgomery's
//     trick) instead of one ~255-squaring inversion chain per point.
//
// None of this is constant time: table lookups and additions depend on the
// scalar's digits. Use it for public scalars. A hop's secret-scalar
// products run on the fixed-schedule lane kernel instead
// (src/crypto/lanes.h); docs/architecture.md lists the one-off sites that
// still pass a secret scalar through these paths.
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

  // Variable-base scalar multiplication: width-5 NAF digits (odd, in
  // [-15, 15]) over the 8 Jacobian odd multiples P, 3P, ..., 15P, rebuilt
  // on every call; ~2.8k field mul/sqr. If the base repeats, use a
  // FixedBaseTable.
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

  // Affine point (Montgomery-form x, y), never the identity: the entry type
  // of every precomputed table.
  struct Affine {
    U256 x, y;
  };

 private:
  friend class FixedBaseTable;
  friend struct LaneAccess;
  friend Point StrausMsm(std::span<const Point> points,
                         std::span<const Scalar> scalars);

  // Mixed-coordinate addition jacobian + (x, y): with the second point's
  // z == 1 the add costs 11 field mul/sqr instead of 16.
  static Point AddMixed(const Point& jacobian, const U256& x, const U256& y);

  // Sets out[i] to the affine form of in[i] with one field inversion, using
  // out[].x as the prefix-product scratch. An identity in[i] is skipped and
  // leaves out[i] unspecified.
  static void BatchNormalize(std::span<const Point> in, Affine* out);

  U256 x_, y_, z_;
};

// Precomputed signed 6-bit window table for one fixed base: table[w][d-1]
// holds (d << 6w) * base for d in [1, 32], as affine (x, y). Mul recodes the
// scalar into 43 digits in [-31, 32] and sums one entry per nonzero digit,
// negated for a negative digit: ~43 mixed additions and zero doublings.
// Available for any base that repeats (group/entry/trustee public keys,
// rerandomization bases), and behind Point::BaseMul for the generator.
// The lane kernel's fixed-base entry point (src/crypto/lanes.h) reads the
// same rows with a masked scan, so one table serves both.
//
// Build cost is ~1,400 point adds plus one batched inversion (31.2k field
// mul/sqr, about eleven generic Point::Mul calls); each table Mul (454)
// then saves ~2.4k field ops over Point::Mul (~2,830). The table is
// 43 x 32 x 64 B = 86 KiB; hot callers cache one per round/epoch key rather
// than building per batch.
class FixedBaseTable {
 public:
  explicit FixedBaseTable(const Point& base);

  const Point& base() const { return base_; }

  // base * k. Identity base or zero scalar yields the identity, matching
  // Point::Mul exactly on every input. Variable time in k.
  Point Mul(const Scalar& k) const;

  static constexpr int kWindowBits = 6;
  static constexpr int kWindows = 43;  // ceil(257 / 6): room for the carry
  static constexpr int kEntries = 1 << (kWindowBits - 1);

 private:
  friend struct LaneAccess;

  Point base_;
  Point::Affine table_[kWindows][kEntries];
};

// Concatenated 33-byte encodings of `points` — byte-identical to calling
// Encode() per point, but pays one field inversion for the whole batch
// instead of one per point.
Bytes EncodePoints(std::span<const Point> points);

// Point i's 33 bytes in EncodePoints' output.
inline BytesView EncodedPoint(BytesView encoded, size_t i) {
  return encoded.subspan(i * Point::kEncodedSize, Point::kEncodedSize);
}

// Sum of scalars[i] * points[i]. Below the active lane backend's
// pippenger_min_points terms that are not dropped (identity point or zero
// scalar) this runs StrausMsm, from there the backend's pippenger
// (src/crypto/lanes.h). With workers > 1 the terms are split into that
// many chunks run with ParallelFor, each dispatched on its own. Variable
// time in every scalar.
Point MultiScalarMul(std::span<const Point> points,
                     std::span<const Scalar> scalars, size_t workers = 1);

// The kernel below the crossover, exposed so tests can cross-check it at
// every size and bench_table3_primitives can time it on either side of
// the crossover. Same contract as MultiScalarMul: each point's odd
// multiples 1, 3, 5, 7 (affine, one shared inversion per 32 points),
// width-4 NAF digits, one shared run of 256 doublings: ~51 mixed adds per
// point.
Point StrausMsm(std::span<const Point> points, std::span<const Scalar> scalars);

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
