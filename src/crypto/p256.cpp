#include "src/crypto/p256.h"

#include <vector>

#include "src/crypto/sha256.h"
#include "src/util/serde.h"

namespace atom {

// Every coordinate-field operation below goes through the dedicated F_p.
namespace fp = fp256;

namespace {

// Curve coefficient a = -3 in Montgomery form.
const U256& MontA() {
  static const U256 a = fp::Neg(fp::ToMont(U256::FromU64(3)));
  return a;
}

// Curve coefficient b in Montgomery form.
const U256& MontB() {
  static const U256 b = fp::ToMont(P256B());
  return b;
}

// Computes x^3 + ax + b in Montgomery form.
U256 CurveRhs(const U256& mx) {
  U256 x2 = fp::Sqr(mx);
  U256 x3 = fp::Mul(x2, mx);
  U256 ax = fp::Mul(MontA(), mx);
  return fp::Add(fp::Add(x3, ax), MontB());
}

// Parity (least significant bit) of a Montgomery-form field element.
int MontParity(const U256& ma) {
  return fp::FromMont(ma).Bit(0);
}

}  // namespace

// ---------------------------------------------------------------- Scalar --

Scalar Scalar::One() {
  Scalar s;
  s.m_ = FieldN().one();
  return s;
}

Scalar Scalar::FromU64(uint64_t v) {
  Scalar s;
  s.m_ = FieldN().ToMont(U256::FromU64(v));
  return s;
}

Scalar Scalar::Random(Rng& rng) {
  for (;;) {
    Bytes raw = rng.NextBytes(32);
    U256 candidate = U256::FromBytesBe(BytesView(raw));
    if (U256Less(candidate, P256Order()) && !candidate.IsZero()) {
      Scalar s;
      s.m_ = FieldN().ToMont(candidate);
      return s;
    }
  }
}

Scalar Scalar::FromBytesReduced(BytesView bytes32) {
  ATOM_CHECK(bytes32.size() == 32);
  U256 v = FieldN().Reduce(U256::FromBytesBe(bytes32));
  Scalar s;
  s.m_ = FieldN().ToMont(v);
  return s;
}

std::optional<Scalar> Scalar::FromBytes(BytesView bytes32) {
  if (bytes32.size() != 32) {
    return std::nullopt;
  }
  U256 v = U256::FromBytesBe(bytes32);
  if (!U256Less(v, P256Order())) {
    return std::nullopt;
  }
  Scalar s;
  s.m_ = FieldN().ToMont(v);
  return s;
}

std::array<uint8_t, 32> Scalar::ToBytes() const {
  return FieldN().FromMont(m_).ToBytesBe();
}

Scalar Scalar::operator+(const Scalar& o) const {
  Scalar s;
  s.m_ = FieldN().Add(m_, o.m_);
  return s;
}

Scalar Scalar::operator-(const Scalar& o) const {
  Scalar s;
  s.m_ = FieldN().Sub(m_, o.m_);
  return s;
}

Scalar Scalar::operator*(const Scalar& o) const {
  Scalar s;
  s.m_ = FieldN().Mul(m_, o.m_);
  return s;
}

Scalar Scalar::Neg() const {
  Scalar s;
  s.m_ = FieldN().Neg(m_);
  return s;
}

Scalar Scalar::Inv() const {
  Scalar s;
  s.m_ = FieldN().Inv(m_);
  return s;
}

U256 Scalar::PlainValue() const { return FieldN().FromMont(m_); }

// ----------------------------------------------------------------- Point --

const Point& Point::Generator() {
  static const Point g = [] {
    auto p = Point::FromAffine(P256Gx(), P256Gy());
    ATOM_CHECK(p.has_value());
    return *p;
  }();
  return g;
}

std::optional<Point> Point::FromAffine(const U256& x, const U256& y) {
  if (!U256Less(x, P256Prime()) || !U256Less(y, P256Prime())) {
    return std::nullopt;
  }
  Point p;
  p.x_ = fp::ToMont(x);
  p.y_ = fp::ToMont(y);
  p.z_ = fp::kOne;
  if (!p.IsOnCurve()) {
    return std::nullopt;
  }
  return p;
}

bool Point::IsOnCurve() const {
  if (IsInfinity()) {
    return true;
  }
  // y^2 == x^3 + a x z^4 + b z^6 in Jacobian form.
  U256 y2 = fp::Sqr(y_);
  U256 z2 = fp::Sqr(z_);
  U256 z4 = fp::Sqr(z2);
  U256 z6 = fp::Mul(z4, z2);
  U256 x3 = fp::Mul(fp::Sqr(x_), x_);
  U256 rhs = fp::Add(fp::Add(x3, fp::Mul(fp::Mul(MontA(), x_), z4)),
                    fp::Mul(MontB(), z6));
  return y2 == rhs;
}

Point Point::Double() const {
  if (IsInfinity() || y_.IsZero()) {
    return Infinity();
  }
  // dbl-2001-b for a = -3.
  U256 delta = fp::Sqr(z_);
  U256 gamma = fp::Sqr(y_);
  U256 beta = fp::Mul(x_, gamma);
  U256 t0 = fp::Sub(x_, delta);
  U256 t1 = fp::Add(x_, delta);
  U256 alpha = fp::Mul(t0, t1);
  alpha = fp::Add(fp::Add(alpha, alpha), alpha);  // 3 * (x-delta)(x+delta)

  Point out;
  U256 beta4 = fp::Add(fp::Add(beta, beta), fp::Add(beta, beta));
  U256 beta8 = fp::Add(beta4, beta4);
  out.x_ = fp::Sub(fp::Sqr(alpha), beta8);
  U256 yz = fp::Add(y_, z_);
  out.z_ = fp::Sub(fp::Sub(fp::Sqr(yz), gamma), delta);
  U256 gamma2 = fp::Sqr(gamma);
  U256 gamma2_8 = fp::Add(gamma2, gamma2);
  gamma2_8 = fp::Add(gamma2_8, gamma2_8);
  gamma2_8 = fp::Add(gamma2_8, gamma2_8);
  out.y_ = fp::Sub(fp::Mul(alpha, fp::Sub(beta4, out.x_)), gamma2_8);
  return out;
}

Point operator+(const Point& a, const Point& b) {
  if (a.IsInfinity()) {
    return b;
  }
  if (b.IsInfinity()) {
    return a;
  }
  U256 z1z1 = fp::Sqr(a.z_);
  U256 z2z2 = fp::Sqr(b.z_);
  U256 u1 = fp::Mul(a.x_, z2z2);
  U256 u2 = fp::Mul(b.x_, z1z1);
  U256 s1 = fp::Mul(fp::Mul(a.y_, b.z_), z2z2);
  U256 s2 = fp::Mul(fp::Mul(b.y_, a.z_), z1z1);

  if (u1 == u2) {
    if (s1 == s2) {
      return a.Double();
    }
    return Point::Infinity();
  }

  U256 h = fp::Sub(u2, u1);
  U256 r = fp::Sub(s2, s1);
  U256 hh = fp::Sqr(h);
  U256 hhh = fp::Mul(hh, h);
  U256 v = fp::Mul(u1, hh);

  Point out;
  U256 v2 = fp::Add(v, v);
  out.x_ = fp::Sub(fp::Sub(fp::Sqr(r), hhh), v2);
  out.y_ = fp::Sub(fp::Mul(r, fp::Sub(v, out.x_)), fp::Mul(s1, hhh));
  out.z_ = fp::Mul(fp::Mul(a.z_, b.z_), h);
  return out;
}

Point Point::Neg() const {
  if (IsInfinity()) {
    return *this;
  }
  Point out = *this;
  out.y_ = fp::Neg(y_);
  return out;
}

bool Point::operator==(const Point& o) const {
  if (IsInfinity() || o.IsInfinity()) {
    return IsInfinity() == o.IsInfinity();
  }
  // Compare cross-multiplied Jacobian coordinates.
  U256 z1z1 = fp::Sqr(z_);
  U256 z2z2 = fp::Sqr(o.z_);
  if (!(fp::Mul(x_, z2z2) == fp::Mul(o.x_, z1z1))) {
    return false;
  }
  U256 z1z1z1 = fp::Mul(z1z1, z_);
  U256 z2z2z2 = fp::Mul(z2z2, o.z_);
  return fp::Mul(y_, z2z2z2) == fp::Mul(o.y_, z1z1z1);
}

Point Point::Mul(const Scalar& k) const {
  if (IsInfinity() || k.IsZero()) {
    return Infinity();
  }
  // 4-bit fixed window: table[i] = i * P for i in [1, 15].
  Point table[15];
  table[0] = *this;
  for (int i = 1; i < 15; i++) {
    table[i] = table[i - 1] + *this;
  }

  U256 e = k.PlainValue();
  Point acc = Infinity();
  for (int window = 63; window >= 0; window--) {
    for (int i = 0; i < 4; i++) {
      acc = acc.Double();
    }
    uint64_t digit = (e.v[window / 16] >> (4 * (window % 16))) & 0xf;
    if (digit != 0) {
      acc = acc + table[digit - 1];
    }
  }
  return acc;
}

Point Point::AddMixed(const Point& jacobian, const Point& affine) {
  if (jacobian.IsInfinity()) {
    return affine;
  }
  if (affine.IsInfinity()) {
    return jacobian;
  }
  // madd-2008-g: with Z2 == 1, u1/s1 need no scaling and Z3 drops one mul.
  U256 z1z1 = fp::Sqr(jacobian.z_);
  U256 u2 = fp::Mul(affine.x_, z1z1);
  U256 s2 = fp::Mul(fp::Mul(affine.y_, jacobian.z_), z1z1);

  if (u2 == jacobian.x_) {
    if (s2 == jacobian.y_) {
      return jacobian.Double();
    }
    return Infinity();
  }

  U256 h = fp::Sub(u2, jacobian.x_);
  U256 r = fp::Sub(s2, jacobian.y_);
  U256 hh = fp::Sqr(h);
  U256 hhh = fp::Mul(hh, h);
  U256 v = fp::Mul(jacobian.x_, hh);

  Point out;
  U256 v2 = fp::Add(v, v);
  out.x_ = fp::Sub(fp::Sub(fp::Sqr(r), hhh), v2);
  out.y_ = fp::Sub(fp::Mul(r, fp::Sub(v, out.x_)), fp::Mul(jacobian.y_, hhh));
  out.z_ = fp::Mul(jacobian.z_, h);
  return out;
}

FixedBaseTable::FixedBaseTable(const Point& base) : base_(base) {
  if (base.IsInfinity()) {
    return;  // Mul short-circuits; the table is never consulted.
  }
  Point cur = base;
  for (int w = 0; w < 64; w++) {
    table_[w][0] = cur;
    for (int d = 1; d < 15; d++) {
      table_[w][d] = table_[w][d - 1] + cur;
    }
    cur = table_[w][14] + cur;  // cur <<= 4
  }
  // Normalize all 960 entries to affine (z == 1) with ONE shared inversion
  // so Mul can use the mixed add. Every entry is (d << 4w) * base with a
  // multiplier in [1, 15 * 2^252] < n, so none is the identity and every z
  // is invertible (the curve has prime order, cofactor 1).
  std::vector<U256> zs;
  zs.reserve(64 * 15);
  for (int w = 0; w < 64; w++) {
    for (int d = 0; d < 15; d++) {
      zs.push_back(table_[w][d].z_);
    }
  }
  fp::BatchInv(zs);
  for (int w = 0; w < 64; w++) {
    for (int d = 0; d < 15; d++) {
      Point& p = table_[w][d];
      const U256& zinv = zs[static_cast<size_t>(w) * 15 + d];
      U256 zinv2 = fp::Sqr(zinv);
      p.x_ = fp::Mul(p.x_, zinv2);
      p.y_ = fp::Mul(p.y_, fp::Mul(zinv2, zinv));
      p.z_ = fp::kOne;
    }
  }
}

Point FixedBaseTable::Mul(const Scalar& k) const {
  if (base_.IsInfinity() || k.IsZero()) {
    return Point::Infinity();
  }
  U256 e = k.PlainValue();
  Point acc = Point::Infinity();
  for (int window = 0; window < 64; window++) {
    uint64_t digit = (e.v[window / 16] >> (4 * (window % 16))) & 0xf;
    if (digit != 0) {
      acc = Point::AddMixed(acc, table_[window][digit - 1]);
    }
  }
  return acc;
}

const FixedBaseTable& Point::GeneratorTable() {
  static const FixedBaseTable table(Generator());
  return table;
}

Point Point::BaseMul(const Scalar& k) { return GeneratorTable().Mul(k); }

void Point::ToAffine(U256* out_x, U256* out_y) const {
  ATOM_CHECK(!IsInfinity());
  U256 zinv = fp::Inv(z_);
  U256 zinv2 = fp::Sqr(zinv);
  U256 zinv3 = fp::Mul(zinv2, zinv);
  *out_x = fp::FromMont(fp::Mul(x_, zinv2));
  *out_y = fp::FromMont(fp::Mul(y_, zinv3));
}

std::vector<Point::AffineCoords> Point::BatchToAffine(
    std::span<const Point> points) {
  std::vector<AffineCoords> out(points.size());
  std::vector<U256> zs;
  zs.reserve(points.size());
  for (const Point& p : points) {
    if (!p.IsInfinity()) {
      zs.push_back(p.z_);
    }
  }
  fp::BatchInv(zs);
  size_t j = 0;
  for (size_t i = 0; i < points.size(); i++) {
    if (points[i].IsInfinity()) {
      out[i].infinity = true;
      continue;
    }
    const U256& zinv = zs[j++];
    U256 zinv2 = fp::Sqr(zinv);
    out[i].x = fp::FromMont(fp::Mul(points[i].x_, zinv2));
    out[i].y = fp::FromMont(fp::Mul(points[i].y_, fp::Mul(zinv2, zinv)));
  }
  return out;
}

Bytes Point::Encode() const {
  Bytes out(kEncodedSize, 0);
  if (IsInfinity()) {
    return out;
  }
  U256 ax, ay;
  ToAffine(&ax, &ay);
  out[0] = static_cast<uint8_t>(0x02 | ay.Bit(0));
  auto xb = ax.ToBytesBe();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

std::optional<Point> Point::Decode(BytesView bytes33) {
  if (bytes33.size() != kEncodedSize) {
    return std::nullopt;
  }
  if (bytes33[0] == 0x00) {
    for (size_t i = 1; i < kEncodedSize; i++) {
      if (bytes33[i] != 0) {
        return std::nullopt;
      }
    }
    return Infinity();
  }
  if (bytes33[0] != 0x02 && bytes33[0] != 0x03) {
    return std::nullopt;
  }
  U256 x = U256::FromBytesBe(bytes33.subspan(1));
  if (!U256Less(x, P256Prime())) {
    return std::nullopt;
  }
  U256 mx = fp::ToMont(x);
  auto my = fp::Sqrt(CurveRhs(mx));
  if (!my.has_value()) {
    return std::nullopt;
  }
  int want_parity = bytes33[0] & 1;
  U256 y = *my;
  if (MontParity(y) != want_parity) {
    y = fp::Neg(y);
  }
  Point p;
  p.x_ = mx;
  p.y_ = y;
  p.z_ = fp::kOne;
  return p;
}

// ------------------------------------------------------------------- MSM --

Bytes EncodePoints(std::span<const Point> points) {
  auto affine = Point::BatchToAffine(points);
  Bytes out(points.size() * Point::kEncodedSize, 0);
  for (size_t i = 0; i < points.size(); i++) {
    if (affine[i].infinity) {
      continue;  // the identity encodes as 33 zero bytes, already in place
    }
    uint8_t* dst = out.data() + i * Point::kEncodedSize;
    dst[0] = static_cast<uint8_t>(0x02 | affine[i].y.Bit(0));
    auto xb = affine[i].x.ToBytesBe();
    std::copy(xb.begin(), xb.end(), dst + 1);
  }
  return out;
}

Point MultiScalarMul(std::span<const Point> points,
                     std::span<const Scalar> scalars) {
  ATOM_CHECK(points.size() == scalars.size());
  const size_t n = points.size();
  if (n == 0) {
    return Point::Infinity();
  }
  // Below n = 8 the naive sum wins: Pippenger's smallest window (c = 4)
  // still pays 256 doublings plus a 15-bucket running-sum sweep across all
  // 64 windows, which measured (bench_table3_primitives, msm rows at
  // n = 4/8) breaks even against n independent windowed Muls around n = 6
  // and wins by ~20% at n = 8, with either field implementation.
  if (n < 8) {
    Point acc = Point::Infinity();
    for (size_t i = 0; i < n; i++) {
      acc = acc + points[i].Mul(scalars[i]);
    }
    return acc;
  }

  // Pippenger bucket method. Window width c trades bucket-count (2^c - 1
  // adds per window in the running-sum sweep) against window-count
  // (256/c iterations over all n points): the optimum grows with
  // log2(n). The schedule below follows a sweep of c = 4..11 at
  // n = 32..2048 (two runs on a 4-vCPU x86-64 host): c = 4 is fastest
  // below n = 128, c = 5 from 128, c = 6 from 256 and c = 8 from 1024,
  // each within ~10% of its neighbor at the boundary. The wider windows
  // used before (c = 7 from n = 32, 9 from 256, 11 from 2048) measured
  // 25-90% slower at those sizes.
  int c = 4;
  if (n >= 128) {
    c = 5;
  }
  if (n >= 256) {
    c = 6;
  }
  if (n >= 1024) {
    c = 8;
  }
  const int num_windows = (256 + c - 1) / c;
  const size_t num_buckets = (1u << c) - 1;

  std::vector<U256> plain(n);
  for (size_t i = 0; i < n; i++) {
    plain[i] = scalars[i].PlainValue();
  }

  auto digit_of = [&](const U256& e, int window) -> uint64_t {
    int bit = window * c;
    uint64_t d = 0;
    // Collect c bits starting at `bit` (may straddle a limb boundary).
    int limb = bit / 64, off = bit % 64;
    d = e.v[limb] >> off;
    if (off + c > 64 && limb + 1 < 4) {
      d |= e.v[limb + 1] << (64 - off);
    }
    return d & ((1ull << c) - 1);
  };

  Point result = Point::Infinity();
  std::vector<Point> buckets(num_buckets);
  for (int window = num_windows - 1; window >= 0; window--) {
    for (int i = 0; i < c; i++) {
      result = result.Double();
    }
    for (auto& b : buckets) {
      b = Point::Infinity();
    }
    for (size_t i = 0; i < n; i++) {
      uint64_t d = digit_of(plain[i], window);
      if (d != 0) {
        buckets[d - 1] = buckets[d - 1] + points[i];
      }
    }
    // Running-sum trick: sum_{d} d * bucket[d].
    Point running = Point::Infinity();
    Point window_sum = Point::Infinity();
    for (size_t d = num_buckets; d > 0; d--) {
      running = running + buckets[d - 1];
      window_sum = window_sum + running;
    }
    result = result + window_sum;
  }
  return result;
}

// ---------------------------------------------------- derived generators --

Point HashToPoint(BytesView label) {
  for (uint32_t counter = 0;; counter++) {
    ByteWriter w;
    w.Raw(ToBytes("atom/hash-to-point/v1"));
    w.Var(label);
    w.U32(counter);
    auto digest = Sha256::Hash(BytesView(w.bytes()));
    U256 x = U256::FromBytesBe(BytesView(digest));
    if (!U256Less(x, P256Prime())) {
      continue;
    }
    U256 mx = fp::ToMont(x);
    auto my = fp::Sqrt(CurveRhs(mx));
    if (!my.has_value()) {
      continue;
    }
    // Pick the even-parity root deterministically.
    U256 y = *my;
    if (MontParity(y) != 0) {
      y = fp::Neg(y);
    }
    Point p;
    U256 ax = x;
    U256 ay = fp::FromMont(y);
    auto q = Point::FromAffine(ax, ay);
    ATOM_CHECK(q.has_value());
    p = *q;
    return p;
  }
}

// -------------------------------------------------------- message embed --

std::optional<Point> EmbedMessage(BytesView data) {
  if (data.size() > kEmbedCapacity) {
    return std::nullopt;
  }
  // x = [len | data | zero padding | counter], big-endian bytes. The top
  // byte is <= 30, so x < p always holds.
  std::array<uint8_t, 32> xbuf{};
  xbuf[0] = static_cast<uint8_t>(data.size());
  std::copy(data.begin(), data.end(), xbuf.begin() + 1);
  for (int counter = 0; counter < 256; counter++) {
    xbuf[31] = static_cast<uint8_t>(counter);
    U256 x = U256::FromBytesBe(BytesView(xbuf));
    U256 mx = fp::ToMont(x);
    auto my = fp::Sqrt(CurveRhs(mx));
    if (!my.has_value()) {
      continue;
    }
    U256 y = fp::FromMont(*my);
    auto p = Point::FromAffine(x, y);
    ATOM_CHECK(p.has_value());
    return p;
  }
  // Each try succeeds with probability ~1/2; 256 misses is astronomically
  // unlikely for any input.
  return std::nullopt;
}

std::optional<Bytes> ExtractMessage(const Point& p) {
  if (p.IsInfinity()) {
    return std::nullopt;
  }
  U256 ax, ay;
  p.ToAffine(&ax, &ay);
  auto xb = ax.ToBytesBe();
  size_t len = xb[0];
  if (len > kEmbedCapacity) {
    return std::nullopt;
  }
  return Bytes(xb.begin() + 1, xb.begin() + 1 + static_cast<ptrdiff_t>(len));
}

}  // namespace atom
