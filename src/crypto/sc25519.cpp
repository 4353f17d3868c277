#include "crypto/sc25519.hpp"

namespace repchain::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L = 2^252 + 27742317777372353535851937790883648493, little-endian limbs
// (with a zero fifth limb for 320-bit arithmetic).
constexpr u64 kL[5] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0x0ULL,
                       0x1000000000000000ULL, 0x0ULL};

// mu = floor(2^512 / L), the Barrett constant (260 bits).
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
                        0xffffffffffffffffULL, 0xfULL};

// Compare 256-bit values: a >= b. Variable-time: only public encodings.
bool ge256(const u64 a[4], const u64 b[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// r = r - L if r >= L, by a masked select (no branch on r).
void sub_l_if_ge(u64 r[5]) {
  u64 t[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)r[i] - kL[i] - borrow;
    t[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 keep_t = borrow - 1;  // all ones iff no borrow, i.e. r >= L
  for (int i = 0; i < 5; ++i) r[i] = (t[i] & keep_t) | (r[i] & ~keep_t);
}

// x mod L for a 512-bit x (8 little-endian limbs), by Barrett reduction
// (HAC 14.42 with b = 2^64, k = 4): q = floor(floor(x / b^3) * mu / b^5)
// underestimates floor(x / L) by at most 2, so x - q*L < 3L and two masked
// subtractions finish. Constant-time: signing reduces secret values.
Scalar reduce512(const u64 x[8]) {
  // q1 * mu, keeping only limbs 5..9 of the 10-limb product.
  u64 prod[10] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur = (u128)x[3 + i] * kMu[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    prod[i + 5] = carry;
  }
  const u64* q = prod + 5;

  // r = (x - q*L) mod b^5.
  u64 ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      const u128 cur = (u128)q[i] * kL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
  }
  u64 r[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)x[i] - ql[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  sub_l_if_ge(r);
  sub_l_if_ge(r);
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

u64 load64_le(const std::uint8_t* in) {
  u64 v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | in[b];
  return v;
}
}  // namespace

Scalar sc_from_bytes_wide(const ByteArray<64>& in) {
  u64 limbs[8];
  for (int i = 0; i < 8; ++i) limbs[i] = load64_le(in.data() + 8 * i);
  return reduce512(limbs);
}

Scalar sc_from_bytes(const ByteArray<32>& in) {
  u64 limbs[8] = {};
  for (int i = 0; i < 4; ++i) limbs[i] = load64_le(in.data() + 8 * i);
  return reduce512(limbs);
}

bool sc_is_canonical(const ByteArray<32>& in) {
  u64 limbs[4];
  for (int i = 0; i < 4; ++i) limbs[i] = load64_le(in.data() + 8 * i);
  return !ge256(limbs, kL);
}

ByteArray<32> sc_to_bytes(const Scalar& s) {
  ByteArray<32> out{};
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>(s.v[i] >> (8 * b));
    }
  }
  return out;
}

Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  // 512-bit a*b + c by schoolbook multiplication, c folded in as the
  // initial accumulator.
  u64 wide[8] = {c.v[0], c.v[1], c.v[2], c.v[3], 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)a.v[i] * b.v[j] + wide[i + j] + carry;
      wide[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    wide[i + 4] = carry;  // untouched until this row
  }
  return reduce512(wide);
}

Scalar sc_add(const Scalar& a, const Scalar& b) {
  u64 wide[8] = {};
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = (u128)a.v[i] + b.v[i] + carry;
    wide[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  wide[4] = carry;
  return reduce512(wide);
}

Scalar sc_zero() { return Scalar{}; }

bool sc_equal(const Scalar& a, const Scalar& b) {
  u64 diff = 0;
  for (int i = 0; i < 4; ++i) diff |= a.v[i] ^ b.v[i];
  return diff == 0;
}

bool sc_is_zero(const Scalar& s) { return sc_equal(s, sc_zero()); }

}  // namespace repchain::crypto
