#pragma once

// The straightforward arithmetic that the Ed25519 fast paths replaced, kept
// as differential oracles for the tests: double-and-add scalar
// multiplication, a verification built on it, and bit-serial reduction
// mod L. All branch on their inputs and are orders of magnitude slower;
// nothing outside tests/ uses them.

#include <algorithm>
#include <cstdint>

#include "crypto/ed25519.hpp"
#include "crypto/sha512.hpp"

namespace repchain::crypto {

/// [s]P by double-and-add over the 256 bits of s, most significant first.
inline Point point_scalar_mul(const Point& p, const Scalar& s) {
  const ByteArray<32> bits = sc_to_bytes(s);
  Point acc = point_identity();
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      acc = point_double(acc);
      if ((bits[byte] >> bit) & 1) acc = point_add(acc, p);
    }
  }
  return acc;
}

/// RFC 8032's cofactored check [8]([S]B - R - [k]A) == O, every
/// multiplication by the ladder above and every step spelled out.
inline bool verify_by_ladder(const PublicKey& pub, BytesView message, const Signature& sig) {
  const auto a = point_decompress(pub.bytes);
  ByteArray<32> r_enc{}, s_enc{};
  std::copy(sig.bytes.begin(), sig.bytes.begin() + 32, r_enc.begin());
  std::copy(sig.bytes.begin() + 32, sig.bytes.end(), s_enc.begin());
  const auto r = point_decompress(r_enc);
  if (!a || !r || !sc_is_canonical(s_enc)) return false;
  const Hash512 kh = sha512_concat({view(r_enc), view(pub.bytes), message});
  ByteArray<64> wide{};
  std::copy(kh.begin(), kh.end(), wide.begin());
  const Scalar k = sc_from_bytes_wide(wide);
  Point diff = point_add(point_scalar_mul(point_base(), sc_from_bytes(s_enc)),
                         point_neg(point_add(*r, point_scalar_mul(*a, k))));
  for (int i = 0; i < 3; ++i) diff = point_double(diff);
  return point_is_identity(diff);
}

namespace oracle {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L = 2^252 + 27742317777372353535851937790883648493, little-endian limbs.
inline constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0x0ULL,
                              0x1000000000000000ULL};

/// x mod L for an nlimbs-limb little-endian x, by binary long division: the
/// remainder takes one bit of x per step, most significant first, and loses
/// L whenever it reaches it.
inline Scalar reduce_bits(const u64* limbs, int nlimbs) {
  u64 r[4] = {0, 0, 0, 0};
  for (int bit = nlimbs * 64 - 1; bit >= 0; --bit) {
    // r = (r << 1) | bit; r stays < L < 2^253 so the shift cannot overflow.
    u64 carry = (limbs[bit / 64] >> (bit % 64)) & 1;
    for (u64& limb : r) {
      const u64 next = limb >> 63;
      limb = (limb << 1) | carry;
      carry = next;
    }
    bool ge = true;
    for (int i = 3; i >= 0; --i) {
      if (r[i] != kL[i]) {
        ge = r[i] > kL[i];
        break;
      }
    }
    if (ge) {
      u128 borrow = 0;
      for (int i = 0; i < 4; ++i) {
        const u128 d = (u128)r[i] - kL[i] - borrow;
        r[i] = static_cast<u64>(d);
        borrow = (d >> 64) & 1;
      }
    }
  }
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

inline Scalar from_bytes_wide(const ByteArray<64>& in) {
  u64 limbs[8] = {};
  for (std::size_t i = 0; i < 64; ++i) limbs[i / 8] |= u64{in[i]} << (8 * (i % 8));
  return reduce_bits(limbs, 8);
}

/// (a * b + c) mod L for any 256-bit limbs (reduced or not).
inline Scalar muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  u64 wide[8] = {c.v[0], c.v[1], c.v[2], c.v[3], 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)a.v[i] * b.v[j] + wide[i + j] + carry;
      wide[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    wide[i + 4] = carry;
  }
  return reduce_bits(wide, 8);
}

/// (a + b) mod L for any 256-bit limbs.
inline Scalar add(const Scalar& a, const Scalar& b) {
  u64 wide[5] = {};
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = (u128)a.v[i] + b.v[i] + carry;
    wide[i] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  wide[4] = static_cast<u64>(carry);
  return reduce_bits(wide, 5);
}

}  // namespace oracle
}  // namespace repchain::crypto
