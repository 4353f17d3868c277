#include "crypto/ed25519.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "crypto/sha512.hpp"

namespace repchain::crypto {

namespace {
using u64 = std::uint64_t;

/// 2d, cached for the addition formulas.
const Fe& fe_2d() {
  static const Fe k2d = fe_add(fe_edwards_d(), fe_edwards_d());
  return k2d;
}

// The ref10 point representations. Each formula produces a Completed point;
// converting it costs 3 multiplications to Projective (enough to double) or
// 4 to extended (needed to add).

/// ((X : Z), (Y : T)): x = X/Z, y = Y/T.
struct Completed {
  Fe X, Y, Z, T;
};

/// (X : Y : Z) without T.
struct Projective {
  Fe X, Y, Z;
};

/// An addend prepared for repeated use: (Y+X, Y-X, Z, 2dT).
struct Cached {
  Fe YplusX, YminusX, Z, T2d;
};

/// An affine addend (Z = 1): (y+x, y-x, 2dxy). Saves one multiplication per
/// addition over Cached; the static tables use it.
struct Niels {
  Fe YplusX, YminusX, XY2d;
};

Point to_extended(const Completed& c) {
  return Point{fe_mul(c.X, c.T), fe_mul(c.Y, c.Z), fe_mul(c.Z, c.T), fe_mul(c.X, c.Y)};
}

Projective to_projective(const Completed& c) {
  return Projective{fe_mul(c.X, c.T), fe_mul(c.Y, c.Z), fe_mul(c.Z, c.T)};
}

Projective to_projective(const Point& p) { return Projective{p.X, p.Y, p.Z}; }

Cached to_cached(const Point& p) {
  return Cached{fe_add(p.Y, p.X), fe_sub(p.Y, p.X), p.Z, fe_mul(p.T, fe_2d())};
}

/// p as an affine addend, given zinv = 1/Z.
Niels to_niels(const Point& p, const Fe& zinv) {
  const Fe x = fe_mul(p.X, zinv);
  const Fe y = fe_mul(p.Y, zinv);
  return Niels{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), fe_2d())};
}

Niels to_niels(const Point& p) { return to_niels(p, fe_invert(p.Z)); }

/// dbl-2008-hwcd for a = -1.
Completed dbl(const Projective& p) {
  const Fe xx = fe_sq(p.X);
  const Fe yy = fe_sq(p.Y);
  const Fe zz2 = fe_sq(p.Z);
  const Fe b = fe_add(zz2, zz2);
  const Fe aa = fe_sq(fe_add(p.X, p.Y));
  const Fe yy_plus_xx = fe_add(yy, xx);
  const Fe yy_minus_xx = fe_sub(yy, xx);
  return Completed{fe_sub(aa, yy_plus_xx), yy_plus_xx, yy_minus_xx, fe_sub(b, yy_minus_xx)};
}

/// p + q (negate = false) or p - q (negate = true); add-2008-hwcd-3 with q's
/// products precomputed. Swapping Y+X with Y-X and 2dT's sign negates q.
Completed add_cached(const Point& p, const Cached& q, bool negate) {
  const Fe a = fe_mul(fe_sub(p.Y, p.X), negate ? q.YplusX : q.YminusX);
  const Fe b = fe_mul(fe_add(p.Y, p.X), negate ? q.YminusX : q.YplusX);
  const Fe c = fe_mul(p.T, q.T2d);
  const Fe zz = fe_mul(p.Z, q.Z);
  const Fe d = fe_add(zz, zz);
  return negate ? Completed{fe_sub(b, a), fe_add(b, a), fe_sub(d, c), fe_add(d, c)}
                : Completed{fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

/// p + q or p - q for an affine q (madd-2008-hwcd-3).
Completed add_niels(const Point& p, const Niels& q, bool negate) {
  const Fe a = fe_mul(fe_sub(p.Y, p.X), negate ? q.YplusX : q.YminusX);
  const Fe b = fe_mul(fe_add(p.Y, p.X), negate ? q.YminusX : q.YplusX);
  const Fe c = fe_mul(p.T, q.XY2d);
  const Fe d = fe_add(p.Z, p.Z);
  return negate ? Completed{fe_sub(b, a), fe_add(b, a), fe_sub(d, c), fe_add(d, c)}
                : Completed{fe_sub(b, a), fe_add(b, a), fe_add(d, c), fe_sub(d, c)};
}

// ---- Fixed-base comb (constant-time) ----

using CombTable = std::array<std::array<Niels, 8>, 32>;

/// Row i holds (j+1) * 256^i * B for j = 0..7; about 30 KB, built on first
/// use.
const CombTable& comb_table() {
  static const CombTable kTable = [] {
    CombTable t;
    Point row = point_base();  // 256^i * B
    for (auto& entries : t) {
      Point multiple = row;
      for (Niels& entry : entries) {
        entry = to_niels(multiple);
        multiple = point_add(multiple, row);
      }
      for (int k = 0; k < 8; ++k) row = point_double(row);
    }
    return t;
  }();
  return kTable;
}

/// f = mask ? g : f, for mask all ones or all zeros.
void fe_cmov(Fe& f, const Fe& g, u64 mask) {
  for (int i = 0; i < 5; ++i) f.v[i] ^= (f.v[i] ^ g.v[i]) & mask;
}

/// All ones iff a == b (both small non-negative), without a branch.
u64 eq_mask(u64 a, u64 b) { return 0 - (((a ^ b) - 1) >> 63); }

/// digit * 256^row * B for a digit in [-8, 8]: every entry of the row is
/// read and the match kept by mask, then negated by mask, so neither the
/// memory access pattern nor a branch depends on the digit.
Niels comb_select(int row, std::int8_t digit) {
  const u64 negative = static_cast<u64>(static_cast<std::int64_t>(digit)) >> 63;
  const u64 magnitude = static_cast<u64>(digit - 2 * (digit & -static_cast<int>(negative)));
  Niels r{fe_one(), fe_one(), fe_zero()};  // the identity
  const auto& entries = comb_table()[static_cast<std::size_t>(row)];
  for (u64 j = 0; j < 8; ++j) {
    const u64 mask = eq_mask(magnitude, j + 1);
    fe_cmov(r.YplusX, entries[j].YplusX, mask);
    fe_cmov(r.YminusX, entries[j].YminusX, mask);
    fe_cmov(r.XY2d, entries[j].XY2d, mask);
  }
  const u64 neg_mask = 0 - negative;
  const Niels minus{r.YminusX, r.YplusX, fe_neg(r.XY2d)};
  fe_cmov(r.YplusX, minus.YplusX, neg_mask);
  fe_cmov(r.YminusX, minus.YminusX, neg_mask);
  fe_cmov(r.XY2d, minus.XY2d, neg_mask);
  return r;
}

/// Signed radix-16 digits e[0..63] in [-8, 8] with s = sum e[i] * 16^i
/// (s < 2^255). Branch-free.
std::array<std::int8_t, 64> radix16_digits(const Scalar& s) {
  const ByteArray<32> bytes = sc_to_bytes(s);
  std::array<std::int8_t, 64> e{};
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(bytes[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(bytes[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int digit = e[i] + carry;  // in [0, 16]
    carry = (digit + 8) >> 4;
    e[i] = static_cast<std::int8_t>(digit - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);
  return e;
}

// ---- Sliding windows over rows (variable-time, public inputs) ----

/// Digit positions of a row: those of a 256-bit value plus one for the
/// final carry.
constexpr int kPositions = 257;

/// One row of a multi-scalar multiplication: signed sliding-window digits of
/// a scalar, valid at positions 0..top, and the odd multiples P, 3P, 5P, ...
/// they index, either Cached (computed per call) or affine Niels
/// (precomputed).
struct Row {
  std::array<std::int8_t, kPositions> digits{};
  int top = -1;  // highest nonzero position, -1 for a zero scalar
  const Cached* cached = nullptr;
  const Niels* niels = nullptr;
};

/// Signed sliding-window digits of width w (at most 8) of the nbits-bit
/// value in limbs: value = sum d[i] * 2^i with every nonzero d[i] odd in
/// [-(2^(w-1) - 1), 2^(w-1) - 1], so a table of 2^(w-2) odd multiples
/// serves it, and at least w positions after the previous one. A final carry
/// lands on position nbits at the latest, so a 32-bit stride spans 33
/// positions, a 128-bit scalar 129 and a 256-bit one 257. Bits of the limbs
/// at nbits and above must be zero.
void set_digits(Row& row, const u64* limbs, int nbits, int width) {
  u64 padded[5] = {};
  std::copy(limbs, limbs + (nbits + 63) / 64, padded);
  const u64 mask = (u64{1} << width) - 1;
  std::int8_t* d = row.digits.data();
  std::fill(d, d + nbits + 1, std::int8_t{0});
  row.top = -1;
  u64 carry = 0;
  for (int pos = 0; pos <= nbits;) {
    const int limb = pos / 64, bit = pos % 64;
    u64 bits = padded[limb] >> bit;
    if (bit > 64 - width) bits |= padded[limb + 1] << (64 - bit);
    const u64 window = carry + (bits & mask);
    if ((window & 1) == 0) {
      ++pos;  // a zero digit; a pending carry moves up with it
      continue;
    }
    // Windows above 2^(w-1) become window - 2^w, carrying 1.
    carry = window >> (width - 1);
    d[pos] = static_cast<std::int8_t>(static_cast<int>(window) -
                                      static_cast<int>(carry << width));
    row.top = pos;
    pos += width;
  }
}

/// P, 3P, 5P, ..., (2N-1)P in extended coordinates.
template <std::size_t N>
std::array<Point, N> odd_multiples(const Point& p) {
  std::array<Point, N> out;
  const Cached twice = to_cached(point_double(p));
  out[0] = p;
  for (std::size_t j = 1; j < N; ++j) out[j] = to_extended(add_cached(out[j - 1], twice, false));
  return out;
}

std::array<Cached, 8> cached_odd_multiples(const Point& p) {
  const std::array<Point, 8> multiples = odd_multiples<8>(p);
  std::array<Cached, 8> out;
  for (std::size_t j = 0; j < 8; ++j) out[j] = to_cached(multiples[j]);
  return out;
}

/// 1/Z of every point with one field inversion (Montgomery's trick: invert
/// the product of every Z, then peel each inverse off it). Z is never zero
/// on the curve.
std::vector<Fe> inverse_zs(std::span<const Point> points) {
  std::vector<Fe> out(points.size());
  if (points.empty()) return out;
  out[0] = points[0].Z;  // out[i] = Z_0 * ... * Z_i, until peeled
  for (std::size_t i = 1; i < points.size(); ++i) out[i] = fe_mul(out[i - 1], points[i].Z);
  Fe inv = fe_invert(out.back());  // 1 / (Z_0 * ... * Z_i) at the top of each step
  for (std::size_t i = points.size() - 1; i > 0; --i) {
    out[i] = fe_mul(inv, out[i - 1]);
    inv = fe_mul(inv, points[i].Z);
  }
  out[0] = inv;
  return out;
}

/// RFC 8032 encoding of p given zinv = 1/Z.
ByteArray<32> encode(const Point& p, const Fe& zinv) {
  ByteArray<32> out = fe_to_bytes(fe_mul(p.Y, zinv));
  if (fe_is_negative(fe_mul(p.X, zinv))) out[31] |= 0x80;
  return out;
}

/// A scalar's 8 strides of 32 bits; stride j is read against the odd
/// multiples of 2^(32j) P.
constexpr std::size_t kStrides = 8;

/// Table j holds the odd multiples P, 3P, ..., (2N-1)P of 2^(32j) P.
template <std::size_t N>
using StrideTables = std::array<std::array<Niels, N>, kStrides>;

/// The stride tables of p as affine addends: 224 doublings for the strides,
/// 8N odd multiples, and one inversion shared by all of them.
template <std::size_t N>
StrideTables<N> stride_tables(const Point& p) {
  std::vector<Point> multiples;
  multiples.reserve(kStrides * N);
  Point stride = p;  // 2^(32j) p
  for (std::size_t j = 0; j < kStrides; ++j) {
    if (j > 0) {
      Projective q = to_projective(stride);
      for (int i = 0; i < 31; ++i) q = to_projective(dbl(q));
      stride = to_extended(dbl(q));
    }
    const std::array<Point, N> odd = odd_multiples<N>(stride);
    multiples.insert(multiples.end(), odd.begin(), odd.end());
  }
  const std::vector<Fe> zinv = inverse_zs(multiples);
  StrideTables<N> out;
  for (std::size_t i = 0; i < multiples.size(); ++i) {
    out[i / N][i % N] = to_niels(multiples[i], zinv[i]);
  }
  return out;
}

/// B's stride tables (64 odd multiples per stride: width-8 windows), built
/// on first use. An enrolled key's hold 16 (width 6), a quarter of the
/// memory per key.
const StrideTables<64>& base_tables() {
  static const StrideTables<64> kTables = stride_tables<64>(point_base());
  return kTables;
}

/// One row per 32-bit stride of s against stride tables, in the widest
/// windows their N odd multiples serve; returns the next row.
template <std::size_t N>
Row* stride_rows(Row* out, const Scalar& s, const StrideTables<N>& tables) {
  constexpr int kWidth = std::bit_width(N) + 1;  // digits up to 2N - 1
  for (std::size_t j = 0; j < kStrides; ++j, ++out) {
    const u64 stride = (s.v[j / 2] >> (32 * (j % 2))) & 0xffffffffULL;
    set_digits(*out, &stride, 32, kWidth);
    out->cached = nullptr;
    out->niels = tables[j].data();
  }
  return out;
}

/// One width-5 row over the whole of s against odd multiples computed per
/// call.
Row* scalar_row(Row* out, const Scalar& s, const std::array<Cached, 8>& table) {
  set_digits(*out, s.v, 256, 5);
  out->cached = table.data();
  out->niels = nullptr;
  return out + 1;
}

/// The sum over every row's digits d[i] of [d[i] * 2^i] times its table's
/// entry, in one doubling chain as long as the highest row.
Point sum_rows(std::span<const Row> rows) {
  int top = -1;
  for (const Row& row : rows) top = std::max(top, row.top);
  if (top < 0) return point_identity();

  Projective acc = to_projective(point_identity());
  for (int pos = top;; --pos) {
    Completed t = dbl(acc);
    const auto at = static_cast<std::size_t>(pos);
    for (const Row& row : rows) {
      if (pos > row.top) continue;
      const int d = row.digits[at];
      if (d == 0) continue;
      const std::size_t j = static_cast<std::size_t>(std::abs(d) / 2);
      t = row.niels != nullptr ? add_niels(to_extended(t), row.niels[j], d < 0)
                               : add_cached(to_extended(t), row.cached[j], d < 0);
    }
    if (pos == 0) return to_extended(t);
    acc = to_projective(t);
  }
}

Scalar clamp_scalar(ByteArray<32> a) {
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  // The clamped value is < 2^255; reduce mod L for use with our scalar type.
  return sc_from_bytes(a);
}
}  // namespace

struct KeyTables {
  StrideTables<16> minus_a;  // stride tables of -A
};

struct VerifyingKey::Lazy {
  std::once_flag built;
  std::unique_ptr<const KeyTables> tables;
};

VerifyingKey::VerifyingKey(const PublicKey& pub)
    : public_(pub), point_(point_decompress(pub.bytes)) {
  if (point_ && point_is_small_order(*point_)) point_.reset();
}

VerifyingKey VerifyingKey::enrolled(const PublicKey& pub) {
  VerifyingKey key(pub);
  if (key.point_) key.lazy_ = std::make_shared<Lazy>();
  return key;
}

const KeyTables* VerifyingKey::tables() const {
  if (!lazy_) return nullptr;
  std::call_once(lazy_->built, [this] {
    lazy_->tables =
        std::make_unique<const KeyTables>(KeyTables{stride_tables<16>(point_neg(*point_))});
  });
  return lazy_->tables.get();
}

Point point_identity() { return Point{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

const Point& point_base() {
  static const Point kBase = [] {
    // y = 4/5 mod p with the even-x root, per RFC 8032.
    const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    ByteArray<32> enc = fe_to_bytes(y);  // sign bit 0 -> even x
    const auto p = point_decompress(enc);
    return *p;
  }();
  return kBase;
}

Point point_add(const Point& p, const Point& q) {
  return to_extended(add_cached(p, to_cached(q), false));
}

Point point_double(const Point& p) { return to_extended(dbl(to_projective(p))); }

Point point_neg(const Point& p) { return Point{fe_neg(p.X), p.Y, p.Z, fe_neg(p.T)}; }

Point point_base_mul(const Scalar& s) {
  // s = sum_k e[2k] 256^k + 16 * sum_k e[2k+1] 256^k, and 256^k selects
  // comb row k: first the odd digits, then four doublings (times 16), then
  // the even digits.
  const std::array<std::int8_t, 64> e = radix16_digits(s);
  Point h = point_identity();
  for (int i = 1; i < 64; i += 2) h = to_extended(add_niels(h, comb_select(i / 2, e[i]), false));
  Projective q = to_projective(dbl(to_projective(h)));
  q = to_projective(dbl(q));
  q = to_projective(dbl(q));
  h = to_extended(dbl(q));
  for (int i = 0; i < 64; i += 2) h = to_extended(add_niels(h, comb_select(i / 2, e[i]), false));
  return h;
}

Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                             std::span<const KeyTerm> keys, const Scalar& b) {
  // Per-call tables first, sized up front so the rows' pointers stay put.
  std::size_t row_count = terms.size() + kStrides;
  std::size_t one_off = 0;
  for (const KeyTerm& key : keys) {
    const bool strided = key.key->tables() != nullptr;
    row_count += strided ? kStrides : 1;
    one_off += strided ? 0 : 1;
  }
  std::vector<std::array<Cached, 8>> tables;
  tables.reserve(terms.size() + one_off);
  std::vector<Row> rows(row_count);
  Row* next = rows.data();
  for (const auto& [s, p] : terms) {
    next = scalar_row(next, s, tables.emplace_back(cached_odd_multiples(p)));
  }
  for (const KeyTerm& key : keys) {
    if (const KeyTables* strided = key.key->tables()) {
      next = stride_rows(next, key.s, strided->minus_a);
    } else {
      const Point minus_a = point_neg(*key.key->point());
      next = scalar_row(next, key.s, tables.emplace_back(cached_odd_multiples(minus_a)));
    }
  }
  stride_rows(next, b, base_tables());
  return sum_rows(rows);
}

Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                             const Scalar& b) {
  return point_multi_scalar_mul(terms, {}, b);
}

Point point_double_scalar_mul(const Scalar& a, const Point& p, const Scalar& b) {
  const std::pair<Scalar, Point> term{a, p};
  return point_multi_scalar_mul({&term, 1}, {}, b);
}

bool point_is_small_order(const Point& p) {
  Projective q = to_projective(p);
  for (int i = 0; i < 3; ++i) q = to_projective(dbl(q));
  return fe_is_zero(q.X) && fe_equal(q.Y, q.Z);
}

bool point_equal(const Point& p, const Point& q) {
  // x1/z1 == x2/z2  <=>  x1*z2 == x2*z1, same for y.
  const Fe lx = fe_mul(p.X, q.Z);
  const Fe rx = fe_mul(q.X, p.Z);
  const Fe ly = fe_mul(p.Y, q.Z);
  const Fe ry = fe_mul(q.Y, p.Z);
  return fe_equal(lx, rx) && fe_equal(ly, ry);
}

bool point_is_identity(const Point& p) { return point_equal(p, point_identity()); }

ByteArray<32> point_compress(const Point& p) { return encode(p, fe_invert(p.Z)); }

std::vector<ByteArray<32>> point_compress_all(std::span<const Point> points) {
  const std::vector<Fe> zinv = inverse_zs(points);
  std::vector<ByteArray<32>> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) out.push_back(encode(points[i], zinv[i]));
  return out;
}

std::optional<Point> point_decompress(const ByteArray<32>& in) {
  const bool x_sign = (in[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(in);  // drops bit 255

  // Solve x^2 = (y^2 - 1) / (d*y^2 + 1).
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(fe_edwards_d(), y2), fe_one());

  // Candidate root x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, fe_sqrtm1());
    } else {
      return std::nullopt;  // not a curve point
    }
  }
  if (fe_is_zero(x) && x_sign) return std::nullopt;  // -0 is not canonical
  if (fe_is_negative(x) != x_sign) x = fe_neg(x);

  return Point{x, y, fe_one(), fe_mul(x, y)};
}

SigningKey::SigningKey(const PrivateSeed& seed) {
  const Hash512 h = Sha512::hash(view(seed.bytes));
  ByteArray<32> lower{};
  for (int i = 0; i < 32; ++i) lower[i] = h[i];
  for (int i = 0; i < 32; ++i) prefix_[i] = h[32 + i];
  secret_scalar_ = clamp_scalar(lower);
  public_.bytes = point_compress(point_base_mul(secret_scalar_));
}

Signature SigningKey::sign(BytesView message) const {
  // r = SHA-512(prefix || M) mod L.
  const Hash512 rh = sha512_concat({view(prefix_), message});
  ByteArray<64> rh_arr{};
  std::copy(rh.begin(), rh.end(), rh_arr.begin());
  const Scalar r = sc_from_bytes_wide(rh_arr);

  const ByteArray<32> r_enc = point_compress(point_base_mul(r));

  // k = SHA-512(enc(R) || pub || M) mod L.
  const Hash512 kh = sha512_concat({view(r_enc), view(public_.bytes), message});
  ByteArray<64> kh_arr{};
  std::copy(kh.begin(), kh.end(), kh_arr.begin());
  const Scalar k = sc_from_bytes_wide(kh_arr);

  const Scalar s = sc_muladd(k, secret_scalar_, r);
  const ByteArray<32> s_enc = sc_to_bytes(s);

  Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
  std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
  return sig;
}

bool verify(const VerifyingKey& key, BytesView message, const Signature& sig) {
  const auto read = read_signature(key, message, sig);
  if (!read) return false;
  const Point p = signature_point(key, *read);
  return signature_point_matches(p, point_compress(p), read->r);
}

std::optional<SignatureScalars> read_signature(const VerifyingKey& key, BytesView message,
                                               const Signature& sig) {
  if (key.point() == nullptr) return std::nullopt;

  SignatureScalars out;
  ByteArray<32> s_enc{};
  std::copy(sig.bytes.begin(), sig.bytes.begin() + 32, out.r.begin());
  std::copy(sig.bytes.begin() + 32, sig.bytes.end(), s_enc.begin());
  if (!sc_is_canonical(s_enc)) return std::nullopt;

  const Hash512 kh = sha512_concat({view(out.r), view(key.public_key().bytes), message});
  ByteArray<64> kh_arr{};
  std::copy(kh.begin(), kh.end(), kh_arr.begin());
  out.s = sc_from_bytes(s_enc);
  out.k = sc_from_bytes_wide(kh_arr);
  return out;
}

Point signature_point(const VerifyingKey& key, const SignatureScalars& sig) {
  // One shared doubling chain covers both multiplications.
  const KeyTerm term{sig.k, &key};
  return point_multi_scalar_mul({}, {&term, 1}, sig.s);
}

bool signature_point_matches(const Point& p, const ByteArray<32>& p_enc,
                             const ByteArray<32>& r) {
  // enc(P) == R's bytes means R is P's canonical encoding, so R decodes to P
  // and P - R is the identity.
  if (p_enc == r) return true;
  const auto r_point = point_decompress(r);
  return r_point && point_is_small_order(point_add(p, point_neg(*r_point)));
}

std::optional<SignatureParts> decode_signature(const VerifyingKey& key, BytesView message,
                                               const Signature& sig) {
  const auto read = read_signature(key, message, sig);
  if (!read) return std::nullopt;
  const auto r = point_decompress(read->r);
  if (!r) return std::nullopt;
  return SignatureParts{read->s, *r, read->k};
}

}  // namespace repchain::crypto
