#include "src/crypto/p256.h"

#include <algorithm>
#include <vector>

#include "src/crypto/lanes.h"
#include "src/crypto/sha256.h"
#include "src/util/parallel.h"
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

// Bits [pos, pos + count) of e as an integer, count <= 16. Bits at 256 and
// above read as zero, so signed recodings can run one window past the top.
int Bits(const U256& e, int pos, int count) {
  if (pos >= 256) {
    return 0;
  }
  const int limb = pos / 64, off = pos % 64;
  uint64_t v = e.v[limb] >> off;
  if (off + count > 64 && limb + 1 < 4) {
    v |= e.v[limb + 1] << (64 - off);
  }
  return static_cast<int>(v & ((uint64_t{1} << count) - 1));
}

// Width-W NAF of a scalar: nonzero digits are odd, in
// [-(2^(W-1) - 1), 2^(W-1) - 1], and at least W positions apart, so a
// 256-bit scalar has about 256 / (W + 1) of them, each naming one of the
// kEntries odd multiples P, 3P, ..., (2^(W-1) - 1)P or its negation.
// Digits are stored lowest position first, each packed as
// position << kPosShift | negative << kNegShift | (|digit| - 1) / 2.
template <int W>
struct Naf {
  static constexpr int kEntries = 1 << (W - 2);
  static constexpr int kNegShift = W - 2;
  static constexpr int kPosShift = W - 1;
  // The NAF of a value below 2^256 has positions 0..256.
  static constexpr int kMaxDigits = (257 + W - 1) / W;

  explicit Naf(const U256& e) {
    int carry = 0;
    for (int bit = 0; bit < 257;) {
      if (Bits(e, bit, 1) == carry) {
        bit++;  // digit 0; a set bit plus a carry keeps carrying
        continue;
      }
      // An odd window value; above 2^(W-1) it becomes negative and carries.
      int word = Bits(e, bit, W) + carry;
      carry = word >> (W - 1);
      word -= carry << W;
      const int magnitude = word < 0 ? -word : word;
      digits[count++] = static_cast<uint16_t>(
          bit << kPosShift | (word < 0 ? 1 : 0) << kNegShift |
          (magnitude - 1) / 2);
      bit += W;
    }
    // A carry out of the window at bit needs 256 - bit >= W, which leaves
    // room for the digit it produces at bit + W <= 256.
    ATOM_CHECK(carry == 0);
  }

  // A packed digit's position, the index of its odd multiple, and whether
  // that multiple is negated.
  static int Position(int code) { return code >> kPosShift; }
  static int Entry(int code) { return code & (kEntries - 1); }
  static bool Negative(int code) { return (code >> kNegShift & 1) != 0; }

  uint16_t digits[kMaxDigits];
  int count = 0;
};

// Point::Mul: width 5, so 8 odd multiples and ~43 additions
// per 256-bit scalar (width 4 would need 4 multiples and ~51 additions;
// width 6, 16 multiples for ~37).
using MulNaf = Naf<5>;

// row[k] = (2k + 1)·p for k < count: one doubling and count - 1 additions.
void OddMultiples(const Point& p, Point* row, size_t count) {
  const Point twice = p.Double();
  row[0] = p;
  for (size_t k = 1; k < count; k++) {
    row[k] = row[k - 1] + twice;
  }
}

// Horner over several NAFs into one accumulator, highest position first:
// one doubling per position below the top digit, shared by every NAF, and
// add(acc, t, code) adds the multiple NAF t's packed digit names. Consumes
// the NAFs' digits.
template <int W, typename Add>
Point RunNafs(std::span<Naf<W>> nafs, Add add) {
  // The per-position scan reads only next_bit, each NAF's highest
  // unconsumed digit position (-1 once consumed), not the digit arrays.
  std::vector<int16_t> next_bit(nafs.size());
  auto top_of = [](const Naf<W>& naf) {
    return naf.count > 0 ? Naf<W>::Position(naf.digits[naf.count - 1]) : -1;
  };
  int top = -1;
  for (size_t t = 0; t < nafs.size(); t++) {
    next_bit[t] = static_cast<int16_t>(top_of(nafs[t]));
    top = std::max<int>(top, next_bit[t]);
  }
  Point acc = Point::Infinity();
  for (int bit = top; bit >= 0; bit--) {
    acc = acc.Double();
    for (size_t t = 0; t < nafs.size(); t++) {
      if (next_bit[t] != bit) {
        continue;
      }
      Naf<W>& naf = nafs[t];
      acc = add(acc, t, naf.digits[--naf.count]);
      next_bit[t] = static_cast<int16_t>(top_of(naf));
    }
  }
  return acc;
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
  // The odd multiples P..15P stay Jacobian: normalizing them would cost
  // an inversion, more than the ~43 mixed additions it would save.
  Point table[MulNaf::kEntries];
  OddMultiples(*this, table, MulNaf::kEntries);
  MulNaf naf(k.PlainValue());
  auto add = [&table](const Point& acc, size_t, int code) {
    const Point& m = table[MulNaf::Entry(code)];
    return acc + (MulNaf::Negative(code) ? m.Neg() : m);
  };
  return RunNafs(std::span(&naf, 1), add);
}

Point Point::AddMixed(const Point& jacobian, const U256& x, const U256& y) {
  if (jacobian.IsInfinity()) {
    Point out;
    out.x_ = x;
    out.y_ = y;
    out.z_ = fp::kOne;
    return out;
  }
  // madd-2008-g: with Z2 == 1, u1/s1 need no scaling and Z3 drops one mul.
  U256 z1z1 = fp::Sqr(jacobian.z_);
  U256 u2 = fp::Mul(x, z1z1);
  U256 s2 = fp::Mul(fp::Mul(y, jacobian.z_), z1z1);

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

void Point::BatchNormalize(std::span<const Point> in, Affine* out) {
  // Forward: out[i].x = product of the z's of in[0..i] (identities skipped).
  U256 prefix = fp::kOne;
  for (size_t i = 0; i < in.size(); i++) {
    if (!in[i].IsInfinity()) {
      prefix = fp::Mul(prefix, in[i].z_);
    }
    out[i].x = prefix;
  }
  // Backward: inv is 1 / out[i].x, so inv * out[i - 1].x is 1 / z_i.
  U256 inv = fp::Inv(prefix);
  for (size_t i = in.size(); i-- > 0;) {
    if (in[i].IsInfinity()) {
      continue;
    }
    U256 zinv = i > 0 ? fp::Mul(inv, out[i - 1].x) : inv;
    inv = fp::Mul(inv, in[i].z_);
    U256 zinv2 = fp::Sqr(zinv);
    out[i].x = fp::Mul(in[i].x_, zinv2);
    out[i].y = fp::Mul(in[i].y_, fp::Mul(zinv2, zinv));
  }
}

FixedBaseTable::FixedBaseTable(const Point& base) : base_(base) {
  if (base.IsInfinity()) {
    return;  // Mul short-circuits; the table is never consulted.
  }
  // Entries are built in Jacobian form with their x, y written straight
  // into the table and their z's parked in `zs`, then all normalized with
  // one shared inversion. Every entry is (d << 6w) * base with d <= 32:
  // a product of powers of two and small factors, never 0 mod the prime
  // group order, so none is the identity and every z is invertible.
  std::vector<U256> zs(static_cast<size_t>(kWindows) * kEntries);
  Point cur = base;  // (1 << 6w) * base
  for (int w = 0; w < kWindows; w++) {
    Point e = cur;  // ((d + 1) << 6w) * base
    for (int d = 0; d < kEntries; d++) {
      if (d > 0) {
        e = d == 1 ? cur.Double() : e + cur;
      }
      table_[w][d] = {e.x_, e.y_};
      zs[static_cast<size_t>(w) * kEntries + d] = e.z_;
    }
    cur = e.Double();  // 32 * cur doubled: the next window's unit
  }
  fp::BatchInv(zs);
  for (int w = 0; w < kWindows; w++) {
    for (int d = 0; d < kEntries; d++) {
      Point::Affine& a = table_[w][d];
      const U256& zinv = zs[static_cast<size_t>(w) * kEntries + d];
      U256 zinv2 = fp::Sqr(zinv);
      a.x = fp::Mul(a.x, zinv2);
      a.y = fp::Mul(a.y, fp::Mul(zinv2, zinv));
    }
  }
}

Point FixedBaseTable::Mul(const Scalar& k) const {
  if (base_.IsInfinity() || k.IsZero()) {
    return Point::Infinity();
  }
  // Signed recoding, low window first: a window value above 32 becomes
  // value - 64 and carries one into the next window. The top window holds
  // bits 252..255 plus the carry (at most 16), so nothing carries out.
  U256 e = k.PlainValue();
  Point acc = Point::Infinity();
  int carry = 0;
  for (int w = 0; w < kWindows; w++) {
    int digit = Bits(e, w * kWindowBits, kWindowBits) + carry;
    carry = digit > kEntries ? 1 : 0;
    digit -= carry << kWindowBits;
    if (digit > 0) {
      const Point::Affine& a = table_[w][digit - 1];
      acc = Point::AddMixed(acc, a.x, a.y);
    } else if (digit < 0) {
      const Point::Affine& a = table_[w][-digit - 1];
      acc = Point::AddMixed(acc, a.x, fp::Neg(a.y));
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
  std::vector<Affine> affine(points.size());
  BatchNormalize(points, affine.data());
  std::vector<AffineCoords> out(points.size());
  for (size_t i = 0; i < points.size(); i++) {
    if (points[i].IsInfinity()) {
      out[i].infinity = true;
      continue;
    }
    out[i].x = fp::FromMont(affine[i].x);
    out[i].y = fp::FromMont(affine[i].y);
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

namespace {

// Straus: width-4 NAF digits (odd, in [-7, 7]), so each point needs the
// affine multiples P, 3P, 5P, 7P, and a 256-bit scalar has about
// 256 / 5 = 51 nonzero digits, each one mixed add into a single
// accumulator that all points share, along with its 256 doublings.
using StrausNaf = Naf<4>;
// Terms whose tables share one inversion: bounds the Jacobian scratch to
// a 12 KiB stack array while costing one extra inversion per 32 terms.
constexpr size_t kStrausChunk = 32;

}  // namespace

Point StrausMsm(std::span<const Point> points,
                std::span<const Scalar> scalars) {
  ATOM_CHECK(points.size() == scalars.size());
  constexpr size_t kEntries = StrausNaf::kEntries;
  std::vector<StrausNaf> nafs;
  std::vector<Point::Affine> tables;
  nafs.reserve(points.size());
  tables.reserve(points.size() * kEntries);
  Point jac[kStrausChunk * kEntries];
  size_t pending = 0;  // terms whose Jacobian rows wait in jac
  auto flush = [&] {
    tables.resize(tables.size() + pending * kEntries);
    Point::BatchNormalize(std::span<const Point>(jac, pending * kEntries),
                          tables.data() + tables.size() - pending * kEntries);
    pending = 0;
  };
  for (size_t i = 0; i < points.size(); i++) {
    if (points[i].IsInfinity() || scalars[i].IsZero()) {
      continue;
    }
    nafs.emplace_back(scalars[i].PlainValue());
    OddMultiples(points[i], jac + pending * kEntries, kEntries);
    if (++pending == kStrausChunk) {
      flush();
    }
  }
  flush();
  auto add = [&tables](const Point& acc, size_t t, int code) {
    const Point::Affine& m = tables[t * kEntries + StrausNaf::Entry(code)];
    return Point::AddMixed(acc, m.x,
                           StrausNaf::Negative(code) ? fp::Neg(m.y) : m.y);
  };
  return RunNafs(std::span(nafs), add);
}

Point MultiScalarMul(std::span<const Point> points,
                     std::span<const Scalar> scalars, size_t workers) {
  ATOM_CHECK(points.size() == scalars.size());
  if (workers > 1 && points.size() >= 64) {
    const size_t chunk = (points.size() + workers - 1) / workers;
    std::vector<Point> partial(workers);
    ParallelFor(workers, workers, [&](size_t w) {
      const size_t lo = std::min(points.size(), w * chunk);
      const size_t hi = std::min(points.size(), lo + chunk);
      partial[w] = MultiScalarMul(points.subspan(lo, hi - lo),
                                  scalars.subspan(lo, hi - lo));
    });
    Point sum = Point::Infinity();
    for (const Point& p : partial) {
      sum = sum + p;
    }
    return sum;
  }
  size_t live = 0;
  for (size_t i = 0; i < points.size(); i++) {
    live += !points[i].IsInfinity() && !scalars[i].IsZero() ? 1 : 0;
  }
  const LaneBackend& lanes = ActiveLanes();
  return live < lanes.pippenger_min_points ? StrausMsm(points, scalars)
                                           : lanes.pippenger(points, scalars);
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
