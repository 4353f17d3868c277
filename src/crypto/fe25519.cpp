#include "crypto/fe25519.hpp"

namespace repchain::crypto {

namespace {
using u64 = std::uint64_t;
using fe_detail::kMask51;

// Sequential carry: every limb below 2^51 except for a possible small excess
// in limb 1 from the *19 wrap (a second pass resolves it).
Fe carry_chain(const Fe& in) {
  Fe f = in;
  u64 c;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  c = f.v[1] >> 51; f.v[1] &= kMask51; f.v[2] += c;
  c = f.v[2] >> 51; f.v[2] &= kMask51; f.v[3] += c;
  c = f.v[3] >> 51; f.v[3] &= kMask51; f.v[4] += c;
  c = f.v[4] >> 51; f.v[4] &= kMask51; f.v[0] += c * 19;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  return f;
}

// a^(2^n) by n squarings.
Fe sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// a^(2^250 - 1), the shared prefix of the inversion and square-root chains;
// also returns a^11 through `a11`.
Fe pow_2_250_minus_1(const Fe& a, Fe& a11) {
  const Fe a2 = fe_sq(a);
  const Fe a9 = fe_mul(sq_n(a2, 2), a);
  a11 = fe_mul(a9, a2);
  const Fe a_5_0 = fe_mul(fe_sq(a11), a9);             // 2^5 - 1
  const Fe a_10_0 = fe_mul(sq_n(a_5_0, 5), a_5_0);     // 2^10 - 1
  const Fe a_20_0 = fe_mul(sq_n(a_10_0, 10), a_10_0);  // 2^20 - 1
  const Fe a_40_0 = fe_mul(sq_n(a_20_0, 20), a_20_0);  // 2^40 - 1
  const Fe a_50_0 = fe_mul(sq_n(a_40_0, 10), a_10_0);  // 2^50 - 1
  const Fe a_100_0 = fe_mul(sq_n(a_50_0, 50), a_50_0);  // 2^100 - 1
  const Fe a_200_0 = fe_mul(sq_n(a_100_0, 100), a_100_0);  // 2^200 - 1
  return fe_mul(sq_n(a_200_0, 50), a_50_0);            // 2^250 - 1
}
}  // namespace

Fe fe_from_u64(u64 x) {
  Fe f;
  f.v[0] = x & kMask51;
  f.v[1] = x >> 51;
  return f;
}

Fe fe_from_bytes(const ByteArray<32>& in) {
  auto load64 = [&](int i) {
    u64 v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | in[i + b];
    return v;
  };
  const u64 w0 = load64(0), w1 = load64(8), w2 = load64(16), w3 = load64(24);
  Fe f;
  f.v[0] = w0 & kMask51;
  f.v[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
  f.v[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
  f.v[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
  f.v[4] = (w3 >> 12) & kMask51;  // also drops bit 255
  return f;
}

ByteArray<32> fe_to_bytes(const Fe& in) {
  Fe f = carry_chain(carry_chain(in));
  // Value is now < 2^255; subtract p once if >= p = 2^255 - 19.
  const bool ge_p = f.v[0] >= (kMask51 - 18) && f.v[1] == kMask51 && f.v[2] == kMask51 &&
                    f.v[3] == kMask51 && f.v[4] == kMask51;
  if (ge_p) {
    f.v[0] -= kMask51 - 18;
    f.v[1] = f.v[2] = f.v[3] = f.v[4] = 0;
  }
  const u64 w0 = f.v[0] | (f.v[1] << 51);
  const u64 w1 = (f.v[1] >> 13) | (f.v[2] << 38);
  const u64 w2 = (f.v[2] >> 26) | (f.v[3] << 25);
  const u64 w3 = (f.v[3] >> 39) | (f.v[4] << 12);
  ByteArray<32> out{};
  auto store64 = [&](int i, u64 v) {
    for (int b = 0; b < 8; ++b) out[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
  };
  store64(0, w0);
  store64(8, w1);
  store64(16, w2);
  store64(24, w3);
  return out;
}

Fe fe_pow(const Fe& a, const ByteArray<32>& exponent_le) {
  Fe result = fe_one();
  bool started = false;
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) result = fe_sq(result);
      if ((exponent_le[byte] >> bit) & 1) {
        result = fe_mul(result, a);
        started = true;
      }
    }
  }
  return result;
}

namespace {
ByteArray<32> exponent_all_ff(std::uint8_t low, std::uint8_t high) {
  ByteArray<32> e{};
  e[0] = low;
  for (int i = 1; i < 31; ++i) e[i] = 0xff;
  e[31] = high;
  return e;
}
}  // namespace

Fe fe_invert(const Fe& a) {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe a11;
  const Fe t = pow_2_250_minus_1(a, a11);
  return fe_mul(sq_n(t, 5), a11);
}

Fe fe_pow22523(const Fe& a) {
  // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  Fe a11;
  const Fe t = pow_2_250_minus_1(a, a11);
  return fe_mul(sq_n(t, 2), a);
}

bool fe_equal(const Fe& a, const Fe& b) {
  const auto ea = fe_to_bytes(a);
  const auto eb = fe_to_bytes(b);
  return ct_equal(view(ea), view(eb));
}

bool fe_is_zero(const Fe& a) { return fe_equal(a, fe_zero()); }

bool fe_is_negative(const Fe& a) { return (fe_to_bytes(a)[0] & 1) != 0; }

const Fe& fe_sqrtm1() {
  // 2 is a quadratic non-residue mod p (p = 5 mod 8), so 2^((p-1)/4) squares
  // to -1. (p - 1) / 4 = 2^253 - 5.
  static const Fe kSqrtM1 = [] {
    const ByteArray<32> exp = exponent_all_ff(0xfb, 0x1f);
    return fe_pow(fe_from_u64(2), exp);
  }();
  return kSqrtM1;
}

const Fe& fe_edwards_d() {
  static const Fe kD = [] {
    const Fe num = fe_neg(fe_from_u64(121665));
    const Fe den = fe_from_u64(121666);
    return fe_mul(num, fe_invert(den));
  }();
  return kD;
}

}  // namespace repchain::crypto
