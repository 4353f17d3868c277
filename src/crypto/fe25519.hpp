#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace repchain::crypto {

/// Element of GF(2^255 - 19) in radix-2^51 representation (5 limbs),
/// value = v[0] + v[1]*2^51 + v[2]*2^102 + v[3]*2^153 + v[4]*2^204.
///
/// Limbs are reduced lazily, so every operation states the limb bound it
/// needs and the one it produces:
///   - "tight": every limb < 2^51 + 2^13. fe_mul, fe_sq, fe_sub, fe_neg,
///     fe_from_bytes and the constants produce tight values.
///   - fe_add does not carry: its output limbs are the sums of the inputs'.
///   - fe_mul and fe_sq take limbs < 2^54 (the sum of up to four tight
///     values), so that the 128-bit column sums and the *19 wrap of the top
///     carry cannot overflow.
///   - fe_sub and fe_neg add 4p before subtracting, so the subtrahend's limbs
///     must not exceed 4p's: 2^53 - 76 for limb 0, 2^53 - 4 for limbs 1-4
///     (any tight value, or the fe_add of two tight values). The minuend
///     takes limbs < 2^54.
///   - fe_to_bytes and the comparisons accept any limbs < 2^54 and work on
///     the unique canonical encoding.
///
/// This is the arithmetic core of the from-scratch Ed25519 implementation
/// (see DESIGN.md: crypto substrate). All operations here are constant-time.
struct Fe {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
};

namespace fe_detail {
using u64 = std::uint64_t;
using u128 = unsigned __int128;
inline constexpr u64 kMask51 = (u64{1} << 51) - 1;
// 4p in radix-2^51.
inline constexpr u64 kFourP0 = 4 * ((u64{1} << 51) - 19);
inline constexpr u64 kFourP1234 = 4 * ((u64{1} << 51) - 1);

/// One parallel carry pass: every limb keeps its low 51 bits and hands the
/// rest to the next (limb 4's wraps to limb 0 times 19). Input limbs
/// < 2^58 give a tight result.
inline Fe carry(u64 v0, u64 v1, u64 v2, u64 v3, u64 v4) {
  Fe f;
  f.v[0] = (v0 & kMask51) + 19 * (v4 >> 51);
  f.v[1] = (v1 & kMask51) + (v0 >> 51);
  f.v[2] = (v2 & kMask51) + (v1 >> 51);
  f.v[3] = (v3 & kMask51) + (v2 >> 51);
  f.v[4] = (v4 & kMask51) + (v3 >> 51);
  return f;
}

/// Carry chain over the five 128-bit column sums of a product of limbs
/// < 2^54 (t0 < 77 * 2^108, t4 < 5 * 2^108) to a tight result.
inline Fe reduce_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe f;
  t1 += static_cast<u64>(t0 >> 51);
  f.v[0] = static_cast<u64>(t0) & kMask51;
  t2 += static_cast<u64>(t1 >> 51);
  f.v[1] = static_cast<u64>(t1) & kMask51;
  t3 += static_cast<u64>(t2 >> 51);
  f.v[2] = static_cast<u64>(t2) & kMask51;
  t4 += static_cast<u64>(t3 >> 51);
  f.v[3] = static_cast<u64>(t3) & kMask51;
  f.v[4] = static_cast<u64>(t4) & kMask51;
  // t4's carry is < 2^59.4, so times 19 it still fits in 64 bits.
  f.v[0] += 19 * static_cast<u64>(t4 >> 51);
  f.v[1] += f.v[0] >> 51;
  f.v[0] &= kMask51;
  return f;
}
}  // namespace fe_detail

[[nodiscard]] inline Fe fe_zero() { return Fe{}; }
[[nodiscard]] inline Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
[[nodiscard]] Fe fe_from_u64(std::uint64_t x);

/// Load from 32 little-endian bytes; the top (256th) bit is ignored, as in
/// RFC 8032 point decoding.
[[nodiscard]] Fe fe_from_bytes(const ByteArray<32>& in);

/// Store canonical (fully reduced) 32-byte little-endian encoding.
[[nodiscard]] ByteArray<32> fe_to_bytes(const Fe& f);

/// a + b without carrying (see the limb bounds above).
[[nodiscard]] inline Fe fe_add(const Fe& a, const Fe& b) {
  return Fe{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3],
             a.v[4] + b.v[4]}};
}

/// a - b as a + 4p - b, then one parallel carry; tight result.
[[nodiscard]] inline Fe fe_sub(const Fe& a, const Fe& b) {
  using namespace fe_detail;
  return carry(a.v[0] + kFourP0 - b.v[0], a.v[1] + kFourP1234 - b.v[1],
               a.v[2] + kFourP1234 - b.v[2], a.v[3] + kFourP1234 - b.v[3],
               a.v[4] + kFourP1234 - b.v[4]);
}

[[nodiscard]] inline Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

[[nodiscard]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;
  return fe_detail::reduce_wide(
      (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 +
          (u128)a4 * b1_19,
      (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 +
          (u128)a4 * b2_19,
      (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 +
          (u128)a4 * b3_19,
      (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * b4_19,
      (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0);
}

/// a^2 with the symmetric cross products folded: 15 limb products, not 25.
[[nodiscard]] inline Fe fe_sq(const Fe& a) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 d0 = 2 * a0, d1 = 2 * a1;
  const u64 d2_19 = 38 * a2, a3_19 = 19 * a3, a4_19 = 19 * a4, d4_19 = 38 * a4;
  return fe_detail::reduce_wide(
      (u128)a0 * a0 + (u128)d4_19 * a1 + (u128)d2_19 * a3,
      (u128)d0 * a1 + (u128)d4_19 * a2 + (u128)a3_19 * a3,
      (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_19 * a3,
      (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4_19 * a4,
      (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
}

/// a^(2^255 - 21)  ==  a^(p-2)  ==  a^-1 (for a != 0). ref10 addition chain:
/// 254 squarings and 11 multiplications.
[[nodiscard]] Fe fe_invert(const Fe& a);

/// a^((p-5)/8) = a^(2^252 - 3); used in square-root extraction for point
/// decompression. ref10 addition chain: 251 squarings, 11 multiplications.
[[nodiscard]] Fe fe_pow22523(const Fe& a);

/// Generic square-and-multiply with a little-endian byte exponent. Branches
/// on the exponent (public here: it derives fe_sqrtm1 and is the tests'
/// oracle for the two addition chains).
[[nodiscard]] Fe fe_pow(const Fe& a, const ByteArray<32>& exponent_le);

/// True iff canonical encodings match.
[[nodiscard]] bool fe_equal(const Fe& a, const Fe& b);
[[nodiscard]] bool fe_is_zero(const Fe& a);
/// Least significant bit of the canonical encoding (the "sign" of x in
/// RFC 8032 point compression).
[[nodiscard]] bool fe_is_negative(const Fe& a);

/// sqrt(-1) mod p, computed once as 2^((p-1)/4).
[[nodiscard]] const Fe& fe_sqrtm1();

/// Edwards curve constant d = -121665/121666 mod p, computed once.
[[nodiscard]] const Fe& fe_edwards_d();

}  // namespace repchain::crypto
