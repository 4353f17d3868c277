#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "oracle.hpp"

namespace repchain::crypto {
namespace {

Scalar scalar_from_u64(std::uint64_t x) {
  ByteArray<32> b{};
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(x >> (8 * i));
  return sc_from_bytes(b);
}

TEST(Ed25519Group, BasePointOnCurve) {
  // -x^2 + y^2 == 1 + d*x^2*y^2 for the affine base point.
  const Point& b = point_base();
  const Fe zinv = fe_invert(b.Z);
  const Fe x = fe_mul(b.X, zinv);
  const Fe y = fe_mul(b.Y, zinv);
  const Fe lhs = fe_sub(fe_sq(y), fe_sq(x));
  const Fe rhs = fe_add(fe_one(), fe_mul(fe_edwards_d(), fe_mul(fe_sq(x), fe_sq(y))));
  EXPECT_TRUE(fe_equal(lhs, rhs));
}

TEST(Ed25519Group, BasePointHasEvenX) {
  const auto enc = point_compress(point_base());
  EXPECT_EQ(enc[31] & 0x80, 0);
}

TEST(Ed25519Group, IdentityLaws) {
  const Point id = point_identity();
  const Point& b = point_base();
  EXPECT_TRUE(point_is_identity(id));
  EXPECT_TRUE(point_equal(point_add(b, id), b));
  EXPECT_TRUE(point_equal(point_add(id, b), b));
}

TEST(Ed25519Group, NegationCancels) {
  const Point& b = point_base();
  EXPECT_TRUE(point_is_identity(point_add(b, point_neg(b))));
}

TEST(Ed25519Group, AdditionCommutative) {
  const Point p = point_base_mul(scalar_from_u64(5));
  const Point q = point_base_mul(scalar_from_u64(11));
  EXPECT_TRUE(point_equal(point_add(p, q), point_add(q, p)));
}

TEST(Ed25519Group, AdditionAssociative) {
  const Point p = point_base_mul(scalar_from_u64(3));
  const Point q = point_base_mul(scalar_from_u64(7));
  const Point r = point_base_mul(scalar_from_u64(13));
  EXPECT_TRUE(
      point_equal(point_add(point_add(p, q), r), point_add(p, point_add(q, r))));
}

TEST(Ed25519Group, ScalarMulMatchesRepeatedAddition) {
  const Point& b = point_base();
  Point acc = point_identity();
  for (std::uint64_t k = 0; k <= 16; ++k) {
    EXPECT_TRUE(point_equal(point_base_mul(scalar_from_u64(k)), acc)) << "k=" << k;
    acc = point_add(acc, b);
  }
}

TEST(Ed25519Group, ScalarMulDistributes) {
  // (a+b)P == aP + bP.
  const Scalar a = scalar_from_u64(123456789);
  const Scalar b = scalar_from_u64(987654321);
  const Point lhs = point_base_mul(sc_add(a, b));
  const Point rhs = point_add(point_base_mul(a), point_base_mul(b));
  EXPECT_TRUE(point_equal(lhs, rhs));
}

TEST(Ed25519Group, OrderLAnnihilatesBase) {
  // [L]B == identity, checked via [L-1]B + B.
  ByteArray<32> lm1 = {};
  const Bytes l_minus_1 =
      from_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::copy(l_minus_1.begin(), l_minus_1.end(), lm1.begin());
  const Point p = point_scalar_mul(point_base(), sc_from_bytes(lm1));
  EXPECT_TRUE(point_is_identity(point_add(p, point_base())));
}

TEST(Ed25519Group, DoubleScalarMatchesTwoLadders) {
  Rng rng(777);
  for (int i = 0; i < 10; ++i) {
    ByteArray<64> wa{}, wb{};
    Bytes ra = rng.bytes(64), rb = rng.bytes(64);
    std::copy(ra.begin(), ra.end(), wa.begin());
    std::copy(rb.begin(), rb.end(), wb.begin());
    const Scalar a = sc_from_bytes_wide(wa);
    const Scalar b = sc_from_bytes_wide(wb);
    const Point p = point_base_mul(scalar_from_u64(9999 + i));

    const Point fast = point_double_scalar_mul(a, p, b);
    const Point slow = point_add(point_scalar_mul(p, a), point_base_mul(b));
    EXPECT_TRUE(point_equal(fast, slow)) << "i=" << i;
  }
}

TEST(Ed25519Group, DoubleScalarZeroEdges) {
  const Scalar zero = sc_zero();
  const Scalar five = scalar_from_u64(5);
  const Point p = point_base_mul(scalar_from_u64(3));
  EXPECT_TRUE(point_is_identity(point_double_scalar_mul(zero, p, zero)));
  EXPECT_TRUE(point_equal(point_double_scalar_mul(zero, p, five), point_base_mul(five)));
  EXPECT_TRUE(
      point_equal(point_double_scalar_mul(five, p, zero), point_scalar_mul(p, five)));
}

TEST(Ed25519Group, CompressDecompressRoundTrip) {
  for (std::uint64_t k : {1ULL, 2ULL, 3ULL, 99ULL, 0xdeadbeefULL}) {
    const Point p = point_base_mul(scalar_from_u64(k));
    const auto enc = point_compress(p);
    const auto q = point_decompress(enc);
    ASSERT_TRUE(q.has_value()) << "k=" << k;
    EXPECT_TRUE(point_equal(p, *q));
    EXPECT_EQ(point_compress(*q), enc);
  }
}

TEST(Ed25519Group, CompressAllEqualsCompressingEachPoint) {
  // One inversion shared by sets of 0-17 points: sums (Z != 1), the
  // identity and a point of order 4 among them.
  Rng rng(2402);
  const Point order4 = *point_decompress(ByteArray<32>{});
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<Point> points;
    for (std::size_t i = 0; i < n; ++i) {
      Point p = point_add(point_base_mul(scalar_from_u64(rng.next_u64())),
                          point_base_mul(scalar_from_u64(rng.next_u64())));
      if (i % 7 == 3) p = point_identity();
      if (i % 7 == 5) p = point_add(p, order4);
      points.push_back(p);
    }
    const std::vector<ByteArray<32>> all = point_compress_all(points);
    ASSERT_EQ(all.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(all[i], point_compress(points[i])) << n << " " << i;
  }
}

TEST(Ed25519Group, DecompressRejectsOffCurve) {
  // Brute scan: some encodings must be rejected (roughly half of y values
  // have no matching x).
  int rejected = 0;
  for (std::uint8_t y0 = 0; y0 < 50; ++y0) {
    ByteArray<32> enc{};
    enc[0] = y0;
    if (!point_decompress(enc)) ++rejected;
  }
  EXPECT_GT(rejected, 5);
}

TEST(Ed25519Group, DecompressRejectsMinusZeroX) {
  // y = 1 gives x = 0; the encoding with sign bit set must be rejected.
  ByteArray<32> enc{};
  enc[0] = 1;
  ASSERT_TRUE(point_decompress(enc).has_value());
  enc[31] |= 0x80;
  EXPECT_FALSE(point_decompress(enc).has_value());
}

TEST(Ed25519Sign, SignVerifyRoundTrip) {
  Rng rng(1001);
  for (int i = 0; i < 5; ++i) {
    const SigningKey key(random_seed(rng));
    const Bytes msg = to_bytes("message number " + std::to_string(i));
    const Signature sig = key.sign(msg);
    EXPECT_TRUE(verify(key.public_key(), msg, sig));
  }
}

TEST(Ed25519Sign, EmptyMessage) {
  Rng rng(1002);
  const SigningKey key(random_seed(rng));
  const Signature sig = key.sign(Bytes{});
  EXPECT_TRUE(verify(key.public_key(), Bytes{}, sig));
}

TEST(Ed25519Sign, DeterministicSignatures) {
  Rng rng(1003);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("determinism matters for the VRF");
  EXPECT_EQ(key.sign(msg), key.sign(msg));
}

TEST(Ed25519Sign, TamperedMessageRejected) {
  Rng rng(1004);
  const SigningKey key(random_seed(rng));
  Bytes msg = to_bytes("original payload");
  const Signature sig = key.sign(msg);
  msg[0] ^= 0x01;
  EXPECT_FALSE(verify(key.public_key(), msg, sig));
}

TEST(Ed25519Sign, TamperedSignatureRejected) {
  Rng rng(1005);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("payload");
  for (std::size_t byte : {0u, 31u, 32u, 63u}) {
    Signature sig = key.sign(msg);
    sig.bytes[byte] ^= 0x01;
    EXPECT_FALSE(verify(key.public_key(), msg, sig)) << "byte " << byte;
  }
}

TEST(Ed25519Sign, WrongKeyRejected) {
  Rng rng(1006);
  const SigningKey a(random_seed(rng));
  const SigningKey b(random_seed(rng));
  const Bytes msg = to_bytes("payload");
  EXPECT_FALSE(verify(b.public_key(), msg, a.sign(msg)));
}

TEST(Ed25519Sign, NonCanonicalSRejected) {
  Rng rng(1007);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("payload");
  Signature sig = key.sign(msg);
  // Force S >= L by setting the top byte to a value that pushes it over.
  sig.bytes[63] = 0xff;
  EXPECT_FALSE(verify(key.public_key(), msg, sig));
}

TEST(Ed25519Sign, DifferentSeedsDifferentKeys) {
  Rng rng(1008);
  const SigningKey a(random_seed(rng));
  const SigningKey b(random_seed(rng));
  EXPECT_NE(a.public_key(), b.public_key());
}

TEST(Ed25519Sign, SameSeedSameKey) {
  PrivateSeed seed;
  for (std::size_t i = 0; i < 32; ++i) seed.bytes[i] = static_cast<std::uint8_t>(i);
  const SigningKey a(seed), b(seed);
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_EQ(a.sign(to_bytes("x")), b.sign(to_bytes("x")));
}

TEST(Ed25519Sign, LongMessage) {
  Rng rng(1009);
  const SigningKey key(random_seed(rng));
  const Bytes msg = rng.bytes(10000);
  EXPECT_TRUE(verify(key.public_key(), msg, key.sign(msg)));
}

}  // namespace
}  // namespace repchain::crypto
