#include "crypto/batch_verify.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "oracle.hpp"

namespace repchain::crypto {
namespace {

std::vector<BatchItem> make_batch(Rng& rng, std::size_t n) {
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    const SigningKey key(random_seed(rng));
    BatchItem item;
    item.pub = key.public_key();
    item.message = to_bytes("message-" + std::to_string(i));
    item.sig = key.sign(item.message);
    items.push_back(std::move(item));
  }
  return items;
}

TEST(BatchVerify, EmptyBatchPasses) {
  Rng rng(1);
  EXPECT_TRUE(verify_batch({}, rng));
}

TEST(BatchVerify, SingleValidSignature) {
  Rng rng(2);
  const auto items = make_batch(rng, 1);
  EXPECT_TRUE(verify_batch(items, rng));
}

TEST(BatchVerify, ManyValidSignatures) {
  Rng rng(3);
  for (std::size_t n : {2u, 5u, 16u, 33u}) {
    const auto items = make_batch(rng, n);
    EXPECT_TRUE(verify_batch(items, rng)) << "n=" << n;
  }
}

TEST(BatchVerify, SingleCorruptionFailsBatch) {
  Rng rng(4);
  for (std::size_t corrupt_at : {0u, 3u, 7u}) {
    auto items = make_batch(rng, 8);
    items[corrupt_at].message.push_back(0xff);
    EXPECT_FALSE(verify_batch(items, rng)) << "corrupt_at=" << corrupt_at;
  }
}

TEST(BatchVerify, WrongKeyFailsBatch) {
  Rng rng(5);
  auto items = make_batch(rng, 4);
  std::swap(items[0].pub, items[1].pub);
  EXPECT_FALSE(verify_batch(items, rng));
}

TEST(BatchVerify, MalformedSignatureFailsBatch) {
  Rng rng(6);
  auto items = make_batch(rng, 3);
  items[1].sig.bytes[63] = 0xff;  // non-canonical S
  EXPECT_FALSE(verify_batch(items, rng));
}

TEST(BatchVerify, ComplementaryCorruptionsDoNotCancel) {
  // Tamper two signatures so that with unit coefficients the errors would
  // cancel (S_0 += 1, S_1 -= 1 over the same key would sum identically);
  // random z_i must still catch it.
  Rng rng(7);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("same message");
  BatchItem a, b;
  a.pub = b.pub = key.public_key();
  a.message = b.message = msg;
  a.sig = b.sig = key.sign(msg);

  // S_a += 1 (mod L), S_b -= 1 (mod L), via byte-level add/sub with carry.
  auto bump = [](Signature& sig, int delta) {
    int carry = delta;
    for (std::size_t i = 32; i < 64 && carry != 0; ++i) {
      const int v = static_cast<int>(sig.bytes[i]) + carry;
      sig.bytes[i] = static_cast<std::uint8_t>((v + 256) % 256);
      carry = v < 0 ? -1 : (v > 255 ? 1 : 0);
    }
  };
  bump(a.sig, +1);
  bump(b.sig, -1);

  ASSERT_FALSE(verify(a.pub, a.message, a.sig));
  ASSERT_FALSE(verify(b.pub, b.message, b.sig));
  const std::vector<BatchItem> items = {a, b};
  int failures = 0;
  for (int trial = 0; trial < 10; ++trial) {
    if (!verify_batch(items, rng)) ++failures;
  }
  EXPECT_EQ(failures, 10);
}

TEST(BatchVerify, DetailedLocatesOffenders) {
  Rng rng(8);
  auto items = make_batch(rng, 6);
  items[2].message[0] ^= 1;
  items[5].sig.bytes[0] ^= 1;
  const auto result = verify_batch_detailed(items, rng);
  ASSERT_EQ(result.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result[i], i != 2 && i != 5) << i;
  }
}

TEST(BatchVerify, DetailedAllValidShortCircuits) {
  Rng rng(9);
  const auto items = make_batch(rng, 4);
  const auto result = verify_batch_detailed(items, rng);
  for (bool ok : result) EXPECT_TRUE(ok);
}

TEST(MultiScalarMul, MatchesIndependentLadders) {
  Rng rng(10);
  std::vector<std::pair<Scalar, Point>> terms;
  Point expected = point_identity();
  for (int i = 0; i < 5; ++i) {
    ByteArray<64> wide{};
    const Bytes raw = rng.bytes(64);
    std::copy(raw.begin(), raw.end(), wide.begin());
    const Scalar s = sc_from_bytes_wide(wide);
    ByteArray<32> pk{};
    pk[0] = static_cast<std::uint8_t>(i + 2);
    const Point p = point_base_mul(sc_from_bytes(pk));
    terms.emplace_back(s, p);
    expected = point_add(expected, point_scalar_mul(p, s));
  }
  EXPECT_TRUE(point_equal(point_multi_scalar_mul(terms), expected));
}

TEST(MultiScalarMul, EmptyIsIdentity) {
  EXPECT_TRUE(point_is_identity(point_multi_scalar_mul({})));
}

}  // namespace
}  // namespace repchain::crypto
