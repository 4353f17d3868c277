// Signatures whose only defect is a small-order component. RFC 8032's
// cofactored equation [8][S]B == [8]R + [8][k]A accepts them; what matters
// is that verify, verify_batch under every coefficient stream, and
// verify_batch_detailed give such a signature one verdict. A cofactorless
// batch equation accepts R + T (T of order n) exactly when the random
// coefficient is a multiple of n, so the three used to disagree. A key that
// is itself of small order verifies nothing: under it, anyone could meet
// the equation for any message.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/sha512.hpp"
#include "oracle.hpp"

namespace repchain::crypto {
namespace {

Scalar random_scalar(Rng& rng) {
  ByteArray<64> wide{};
  const Bytes raw = rng.bytes(64);
  std::copy(raw.begin(), raw.end(), wide.begin());
  return sc_from_bytes_wide(wide);
}

Point decode_hex(const std::string& hex) {
  const Bytes raw = from_hex(hex);
  ByteArray<32> enc{};
  std::copy(raw.begin(), raw.end(), enc.begin());
  const auto p = point_decompress(enc);
  EXPECT_TRUE(p.has_value()) << hex;
  return p.value_or(point_identity());
}

/// The order of a point of order dividing 8.
int small_order(const Point& t) {
  Point p = t;
  for (int order = 1; order <= 8; order *= 2) {
    if (point_is_identity(p)) return order;
    p = point_double(p);
  }
  return 0;  // not a small-order point
}

/// A point of order 2, 4 or 8 (y = -1; y = 0; one of the two order-8 y's).
Point torsion(int order) {
  switch (order) {
    case 2:
      return decode_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
    case 4:
      return decode_hex("0000000000000000000000000000000000000000000000000000000000000000");
    default:
      return decode_hex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a");
  }
}

/// k = H(enc(R) || pub || M) mod L for the signature's R.
Scalar challenge(const Signature& sig, const PublicKey& pub, BytesView message) {
  const Hash512 kh = sha512_concat({BytesView(sig.bytes.data(), 32), view(pub.bytes), message});
  ByteArray<64> wide{};
  std::copy(kh.begin(), kh.end(), wide.begin());
  return sc_from_bytes_wide(wide);
}

/// Signs `message` as a signer who knows the secret scalar a and publishes
/// `pub`, with nonce point R = [r]B + r_torsion: S = r + k a.
Signature sign_with(const Scalar& a, const PublicKey& pub, const Scalar& r,
                    const Point& r_torsion, BytesView message) {
  Signature sig;
  const ByteArray<32> r_enc = point_compress(point_add(point_base_mul(r), r_torsion));
  std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
  const ByteArray<32> s_enc = sc_to_bytes(sc_muladd(challenge(sig, pub, message), a, r));
  std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
  return sig;
}

// Plain bytes, no pointer: gtest lists a parameter by its raw bytes, and
// ctest takes that listing as the test's name. A std::string here would put a
// heap address in the name, which moves whenever an earlier allocation does.
struct SmallOrderCase {
  char name[32];
  int r_order;    // order of the torsion point added to R (1: none)
  int key_order;  // order of the torsion point added to A (1: none)
};

class SmallOrder : public ::testing::TestWithParam<SmallOrderCase> {};

TEST_P(SmallOrder, OneVerdictFromSingleBatchAndDetailed) {
  const SmallOrderCase& c = GetParam();
  const Point r_torsion = c.r_order > 1 ? torsion(c.r_order) : point_identity();
  const Point key_torsion = c.key_order > 1 ? torsion(c.key_order) : point_identity();
  ASSERT_EQ(small_order(r_torsion), c.r_order);
  ASSERT_EQ(small_order(key_torsion), c.key_order);

  Rng rng(8032);
  const Scalar a = random_scalar(rng);
  PublicKey pub;
  pub.bytes = point_compress(point_add(point_base_mul(a), key_torsion));
  const VerifyingKey key = VerifyingKey::enrolled(pub);
  ASSERT_NE(key.tables(), nullptr);

  // For a torsioned key, pick a message whose k is odd: then [k]T is not the
  // identity, and a cofactorless single check rejects.
  Bytes message = to_bytes("small-order component");
  Signature sig = sign_with(a, pub, random_scalar(rng), r_torsion, message);
  while (c.key_order > 1 && (challenge(sig, pub, message).v[0] & 1) == 0) {
    message.push_back(0x2a);
    sig = sign_with(a, pub, random_scalar(rng), r_torsion, message);
  }

  const bool single = verify(key, message, sig);
  EXPECT_TRUE(single) << "the cofactored equation holds";
  EXPECT_EQ(verify(pub, message, sig), single) << "one-off key";
  EXPECT_EQ(verify_by_ladder(pub, message, sig), single);

  const SigningKey honest_key(PrivateSeed{});
  const Bytes honest_msg = to_bytes("honest");
  const std::vector<BatchItem> alone = {{key, message, sig}};
  const std::vector<BatchItem> paired = {
      {VerifyingKey::enrolled(honest_key.public_key()), honest_msg, honest_key.sign(honest_msg)},
      {key, message, sig}};
  EXPECT_EQ(verify_batch_detailed(paired), (std::vector<bool>{true, single}));
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng coeffs(seed);
    ASSERT_EQ(verify_batch(alone, coeffs), single) << "seed " << seed;
    ASSERT_EQ(verify_batch(paired, coeffs), single) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SmallOrder,
    ::testing::Values(SmallOrderCase{"RPlusOrder2", 2, 1}, SmallOrderCase{"RPlusOrder4", 4, 1},
                      SmallOrderCase{"RPlusOrder8", 8, 1},
                      SmallOrderCase{"KeyEnrolledAsAPlusOrder8", 1, 8}),
    [](const ::testing::TestParamInfo<SmallOrderCase>& info) {
      return std::string(info.param.name);
    });

TEST(SmallOrderKey, VerifiesNothing) {
  PublicKey identity;
  identity.bytes[0] = 1;  // y = 1: the neutral element
  std::vector<PublicKey> keys = {identity};
  for (const int order : {2, 4, 8}) {
    PublicKey pub;
    pub.bytes = point_compress(torsion(order));
    keys.push_back(pub);
  }
  const SigningKey honest(PrivateSeed{});
  const Bytes honest_msg = to_bytes("honest");
  const BatchItem honest_item{honest.public_key(), honest_msg, honest.sign(honest_msg)};
  Rng rng(8033);
  for (const PublicKey& pub : keys) {
    const VerifyingKey enrolled = VerifyingKey::enrolled(pub);
    EXPECT_EQ(enrolled.point(), nullptr) << to_hex(view(pub.bytes));
    EXPECT_EQ(enrolled.tables(), nullptr);
    for (int i = 0; i < 8; ++i) {
      // (R = [S]B, S): [8]([S]B - R - [k]A) is the identity for every k.
      const ByteArray<32> s_enc = sc_to_bytes(random_scalar(rng));
      Signature forged;
      const ByteArray<32> r_enc = point_compress(point_base_mul(sc_from_bytes(s_enc)));
      std::copy(r_enc.begin(), r_enc.end(), forged.bytes.begin());
      std::copy(s_enc.begin(), s_enc.end(), forged.bytes.begin() + 32);
      const Bytes message = rng.bytes(16);
      EXPECT_FALSE(verify(enrolled, message, forged)) << i;
      EXPECT_FALSE(verify(pub, message, forged)) << i;
      const std::vector<BatchItem> batch = {honest_item, {enrolled, message, forged}};
      EXPECT_FALSE(verify_batch(batch, rng)) << i;
      EXPECT_EQ(verify_batch_detailed(batch), (std::vector<bool>{true, false})) << i;
    }
  }
}

}  // namespace
}  // namespace repchain::crypto
