// Differential tests: the Ed25519 fast paths (lazily reduced field, comb
// base multiplication, sliding-window double-scalar multiplication, Barrett
// scalar reduction, addition-chain inversion, per-item set verification)
// against the straightforward code they replaced, kept in oracle.hpp.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/keygen.hpp"
#include "crypto/vrf.hpp"
#include "oracle.hpp"

namespace repchain::crypto {
namespace {

using u64 = std::uint64_t;

// L and friends as raw (possibly unreduced) 256-bit limbs.
constexpr Scalar kZero{{0, 0, 0, 0}};
constexpr Scalar kOne{{1, 0, 0, 0}};
constexpr Scalar kLMinus1{{0x5812631a5cf5d3ecULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL}};
constexpr Scalar kL{{0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL}};
constexpr Scalar k2L{{0xb024c634b9eba7daULL, 0x29bdf3bd45ef39acULL, 0, 0x2000000000000000ULL}};
constexpr Scalar kAllOnes{{~0ULL, ~0ULL, ~0ULL, ~0ULL}};  // 2^256 - 1

Scalar small(u64 x) { return Scalar{{x, 0, 0, 0}}; }

Scalar random_scalar(Rng& rng) {
  ByteArray<64> wide{};
  const Bytes raw = rng.bytes(64);
  std::copy(raw.begin(), raw.end(), wide.begin());
  return sc_from_bytes_wide(wide);
}

Scalar random_limbs(Rng& rng) {
  Scalar s;
  for (u64& limb : s.v) limb = rng.next_u64();
  return s;
}

ByteArray<64> wide_of(const Scalar& s) {
  ByteArray<64> out{};
  const ByteArray<32> low = sc_to_bytes(s);
  std::copy(low.begin(), low.end(), out.begin());
  return out;
}

::testing::AssertionResult same_point(const Point& p, const Point& q) {
  if (point_compress(p) == point_compress(q)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << to_hex(view(point_compress(p))) << " vs "
                                       << to_hex(view(point_compress(q)));
}

::testing::AssertionResult same_scalar(const Scalar& a, const Scalar& b) {
  if (sc_equal(a, b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << to_hex(view(sc_to_bytes(a))) << " vs "
                                       << to_hex(view(sc_to_bytes(b)));
}

// ---- Group: comb and sliding windows vs the double-and-add ladder ----

std::vector<Scalar> edge_scalars() {
  // 0x0888...8: every nibble below the top one is 8, so the signed radix-16
  // recoding carries out of every digit.
  Scalar eights{{0x8888888888888888ULL, 0x8888888888888888ULL, 0x8888888888888888ULL,
                 0x0888888888888888ULL}};
  return {kZero, kOne, small(15), small(16), kLMinus1,
          Scalar{{0, 0, 0, u64{1} << 60}},  // 2^252
          eights};
}

TEST(Differential, CombBaseMulMatchesLadder) {
  for (const Scalar& s : edge_scalars()) {
    EXPECT_TRUE(same_point(point_base_mul(s), point_scalar_mul(point_base(), s)))
        << to_hex(view(sc_to_bytes(s)));
  }
  Rng rng(2024);
  for (int i = 0; i < 1000; ++i) {
    const Scalar s = random_scalar(rng);
    ASSERT_TRUE(same_point(point_base_mul(s), point_scalar_mul(point_base(), s))) << i;
  }
}

TEST(Differential, DoubleScalarMulMatchesTwoLadders) {
  Rng rng(2025);
  std::vector<Scalar> scalars = edge_scalars();
  for (int i = 0; i < 40; ++i) scalars.push_back(random_scalar(rng));
  const Point p = point_base_mul(random_scalar(rng));
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const Scalar& a = scalars[i];
    const Scalar& b = scalars[(i * 7 + 3) % scalars.size()];
    const Point slow = point_add(point_scalar_mul(p, a), point_scalar_mul(point_base(), b));
    EXPECT_TRUE(same_point(point_double_scalar_mul(a, p, b), slow)) << i;
  }
  for (const Scalar& a : {kZero, kLMinus1}) {
    for (const Scalar& b : {kZero, kLMinus1}) {
      const Point slow =
          point_add(point_scalar_mul(p, a), point_scalar_mul(point_base(), b));
      EXPECT_TRUE(same_point(point_double_scalar_mul(a, p, b), slow));
    }
  }
}

TEST(Differential, DoublingMatchesUnifiedAddition) {
  Rng rng(2027);
  for (int i = 0; i < 50; ++i) {
    const Point p = point_base_mul(random_scalar(rng));
    EXPECT_TRUE(same_point(point_double(p), point_add(p, p)));
  }
  EXPECT_TRUE(point_is_identity(point_double(point_identity())));
}

// ---- Scalars: Barrett reduction vs bit-serial long division ----

TEST(Differential, WideReductionMatchesBitSerial) {
  std::vector<ByteArray<64>> inputs;
  for (const Scalar& s : {kZero, kLMinus1, kL, k2L, kAllOnes}) inputs.push_back(wide_of(s));
  ByteArray<64> all_ff{};
  all_ff.fill(0xff);  // 2^512 - 1
  inputs.push_back(all_ff);
  Rng rng(3031);
  for (int i = 0; i < 1000; ++i) {
    ByteArray<64> w{};
    const Bytes raw = rng.bytes(64);
    std::copy(raw.begin(), raw.end(), w.begin());
    inputs.push_back(w);
  }
  for (const auto& w : inputs) {
    ASSERT_TRUE(same_scalar(sc_from_bytes_wide(w), oracle::from_bytes_wide(w)))
        << to_hex(view(w));
    ByteArray<32> narrow{};
    std::copy(w.begin(), w.begin() + 32, narrow.begin());
    ByteArray<64> widened{};
    std::copy(narrow.begin(), narrow.end(), widened.begin());
    ASSERT_TRUE(same_scalar(sc_from_bytes(narrow), oracle::from_bytes_wide(widened)));
  }
}

TEST(Differential, MulAddAndAddMatchBitSerial) {
  const std::vector<Scalar> edges = {kZero, kOne, kLMinus1, kL, k2L, kAllOnes};
  for (const Scalar& a : edges) {
    for (const Scalar& b : edges) {
      EXPECT_TRUE(same_scalar(sc_add(a, b), oracle::add(a, b)));
      for (const Scalar& c : edges) {
        EXPECT_TRUE(same_scalar(sc_muladd(a, b, c), oracle::muladd(a, b, c)));
      }
    }
  }
  Rng rng(3032);
  for (int i = 0; i < 1000; ++i) {
    // Reduced scalars as in signing, and arbitrary 256-bit limbs.
    const bool raw = i % 2 == 1;
    const Scalar a = raw ? random_limbs(rng) : random_scalar(rng);
    const Scalar b = raw ? random_limbs(rng) : random_scalar(rng);
    const Scalar c = raw ? random_limbs(rng) : random_scalar(rng);
    ASSERT_TRUE(same_scalar(sc_muladd(a, b, c), oracle::muladd(a, b, c))) << i;
    ASSERT_TRUE(same_scalar(sc_add(a, b), oracle::add(a, b))) << i;
  }
}

// ---- Field: addition chains and limb bounds ----

ByteArray<32> exponent(std::uint8_t low, std::uint8_t high) {
  ByteArray<32> e{};
  e.fill(0xff);
  e[0] = low;
  e[31] = high;
  return e;
}

Fe random_fe(Rng& rng) {
  ByteArray<32> b{};
  const Bytes raw = rng.bytes(32);
  std::copy(raw.begin(), raw.end(), b.begin());
  return fe_from_bytes(b);
}

TEST(Differential, AdditionChainsMatchGenericPow) {
  const ByteArray<32> p_minus_2 = exponent(0xeb, 0x7f);     // 2^255 - 21
  const ByteArray<32> p_minus_5_over_8 = exponent(0xfd, 0x0f);  // 2^252 - 3
  std::vector<Fe> inputs = {fe_zero(), fe_one(), fe_from_u64(2), fe_neg(fe_one())};
  Rng rng(4041);
  for (int i = 0; i < 100; ++i) inputs.push_back(random_fe(rng));
  for (const Fe& a : inputs) {
    EXPECT_EQ(fe_to_bytes(fe_invert(a)), fe_to_bytes(fe_pow(a, p_minus_2)));
    EXPECT_EQ(fe_to_bytes(fe_pow22523(a)), fe_to_bytes(fe_pow(a, p_minus_5_over_8)));
  }
}

constexpr u64 kMax54 = (u64{1} << 54) - 1;
constexpr u64 kFourP[5] = {(u64{1} << 53) - 76, (u64{1} << 53) - 4, (u64{1} << 53) - 4,
                           (u64{1} << 53) - 4, (u64{1} << 53) - 4};

Fe canonical(const Fe& a) { return fe_from_bytes(fe_to_bytes(a)); }

bool tight(const Fe& a) {
  for (u64 limb : a.v) {
    if (limb >= (u64{1} << 51) + (u64{1} << 13)) return false;
  }
  return true;
}

/// Field elements with every limb at, or drawn up to, a documented maximum.
std::vector<Fe> loose_inputs(const u64 (&max)[5], Rng& rng) {
  std::vector<Fe> out;
  out.push_back(Fe{{max[0], max[1], max[2], max[3], max[4]}});
  for (int i = 0; i < 200; ++i) {
    Fe f;
    for (int j = 0; j < 5; ++j) f.v[j] = max[j] - rng.next_u64() % (max[j] / (i % 8 + 1) + 1);
    out.push_back(f);
  }
  return out;
}

TEST(Differential, FieldOpsAtDocumentedLimbBounds) {
  Rng rng(5051);
  const u64 mul_max[5] = {kMax54, kMax54, kMax54, kMax54, kMax54};
  const auto big = loose_inputs(mul_max, rng);
  const auto subtrahends = loose_inputs(kFourP, rng);
  for (std::size_t i = 0; i < big.size(); ++i) {
    const Fe& a = big[i];
    const Fe& b = big[(i * 13 + 5) % big.size()];
    const Fe& s = subtrahends[i];
    const Fe ca = canonical(a), cb = canonical(b), cs = canonical(s);

    const Fe prod = fe_mul(a, b);
    EXPECT_TRUE(tight(prod));
    EXPECT_EQ(fe_to_bytes(prod), fe_to_bytes(fe_mul(ca, cb)));
    const Fe sq = fe_sq(a);
    EXPECT_TRUE(tight(sq));
    EXPECT_EQ(fe_to_bytes(sq), fe_to_bytes(fe_mul(ca, ca)));
    const Fe diff = fe_sub(a, s);
    EXPECT_TRUE(tight(diff));
    EXPECT_EQ(fe_to_bytes(diff), fe_to_bytes(fe_sub(ca, cs)));
    const Fe neg = fe_neg(s);
    EXPECT_TRUE(tight(neg));
    EXPECT_EQ(fe_to_bytes(neg), fe_to_bytes(fe_neg(cs)));
    // Two subtrahend-sized values add to a valid fe_mul input.
    EXPECT_EQ(fe_to_bytes(fe_mul(fe_add(s, s), b)), fe_to_bytes(fe_mul(fe_add(cs, cs), cb)));
  }
}

// ---- Batch verification vs single verification ----

TEST(Differential, BatchWithOneForgeryAtEachPositionMatchesVerify) {
  Rng rng(6061);
  std::vector<BatchItem> pool;
  for (int i = 0; i < 8; ++i) {
    const SigningKey key(random_seed(rng));
    BatchItem item;
    item.pub = key.public_key();
    item.message = rng.bytes(40);
    item.sig = key.sign(item.message);
    pool.push_back(std::move(item));
  }
  for (std::size_t n = 1; n <= 8; ++n) {
    std::vector<BatchItem> items(pool.begin(), pool.begin() + static_cast<long>(n));
    EXPECT_TRUE(verify_batch(items, rng)) << "n=" << n;
    for (std::size_t forged = 0; forged < n; ++forged) {
      std::vector<BatchItem> batch = items;
      batch[forged].sig.bytes[forged % 2 == 0 ? 5 : 40] ^= 0x10;  // R or S
      EXPECT_FALSE(verify_batch(batch, rng)) << "n=" << n << " forged=" << forged;
      const std::vector<bool> detailed = verify_batch_detailed(batch);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(detailed[i], verify(batch[i].pub, batch[i].message, batch[i].sig));
        EXPECT_EQ(detailed[i], i != forged);
      }
    }
  }
}

// ---- Keys that are not curve points ----

PublicKey off_curve_key() {
  for (std::uint8_t y0 = 2;; ++y0) {
    PublicKey pub;
    pub.bytes[0] = y0;
    if (!point_decompress(pub.bytes)) return pub;
  }
}

TEST(Differential, OffCurveKeyVerifiesNothing) {
  const PublicKey pub = off_curve_key();
  const VerifyingKey key(pub);
  EXPECT_EQ(key.point(), nullptr);
  EXPECT_EQ(key.public_key(), pub);
  Rng rng(7071);
  const SigningKey signer(random_seed(rng));
  const Bytes msg = to_bytes("anything");
  const Signature sig = signer.sign(msg);
  EXPECT_FALSE(verify(key, msg, sig));
  EXPECT_FALSE(verify(pub, msg, sig));
  EXPECT_FALSE(vrf_verify(key, msg, sig).has_value());
  const std::vector<BatchItem> batch = {{signer.public_key(), msg, sig}, {pub, msg, sig}};
  EXPECT_FALSE(verify_batch(batch, rng));
  EXPECT_EQ(verify_batch_detailed(batch), (std::vector<bool>{true, false}));
}

TEST(Differential, DecodedKeyMatchesDecompression) {
  Rng rng(7072);
  for (int i = 0; i < 20; ++i) {
    const SigningKey signer(random_seed(rng));
    const VerifyingKey key(signer.public_key());
    ASSERT_NE(key.point(), nullptr);
    EXPECT_TRUE(same_point(*key.point(), *point_decompress(signer.public_key().bytes)));
    const Bytes msg = rng.bytes(32);
    EXPECT_TRUE(verify(key, msg, signer.sign(msg)));
  }
}

}  // namespace
}  // namespace repchain::crypto
