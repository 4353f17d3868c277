#include "crypto/batch_verify.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "crypto/sha512.hpp"
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

// --- Mixed batches: malformed items are decided alone -----------------------

enum class Kind { kHonest, kForged, kNonCanonicalS, kOffCurveR, kSmallOrderR, kKeyNotAPoint };
constexpr Kind kKinds[] = {Kind::kHonest,    Kind::kForged,      Kind::kNonCanonicalS,
                           Kind::kOffCurveR, Kind::kSmallOrderR, Kind::kKeyNotAPoint};

Scalar random_scalar(Rng& rng) {
  ByteArray<64> wide{};
  const Bytes raw = rng.bytes(64);
  std::copy(raw.begin(), raw.end(), wide.begin());
  return sc_from_bytes_wide(wide);
}

/// 32 bytes that decode to no curve point.
ByteArray<32> not_a_point(Rng& rng) {
  for (;;) {
    ByteArray<32> enc{};
    const Bytes raw = rng.bytes(32);
    std::copy(raw.begin(), raw.end(), enc.begin());
    if (!point_decompress(enc)) return enc;
  }
}

/// Builds batch items of each kind over three signers who know their secret
/// scalars, so they can also sign with a nonce point R + T for T of order 8.
class ItemMaker {
 public:
  explicit ItemMaker(Rng& rng) : rng_(rng) {
    const Bytes t = from_hex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a");
    ByteArray<32> t_enc{};
    std::copy(t.begin(), t.end(), t_enc.begin());
    order8_ = *point_decompress(t_enc);
    for (int i = 0; i < 3; ++i) {
      Signer s;
      s.a = random_scalar(rng_);
      s.pub.bytes = point_compress(point_base_mul(s.a));
      s.enrolled = VerifyingKey::enrolled(s.pub);
      signers_.push_back(s);
    }
  }

  BatchItem make(Kind kind) {
    const Signer& signer = signers_[rng_.uniform(signers_.size())];
    BatchItem item;
    // Enrolled and one-off copies of one key fold into one A term.
    item.pub = rng_.bernoulli(0.5) ? signer.enrolled : VerifyingKey(signer.pub);
    item.message = rng_.bytes(24);
    const Point torsion = kind == Kind::kSmallOrderR ? order8_ : point_identity();
    item.sig = sign(signer, random_scalar(rng_), torsion, item.message);
    switch (kind) {
      case Kind::kForged:
        item.message[0] ^= 1;  // well-formed, but the equation fails
        break;
      case Kind::kNonCanonicalS:
        item.sig.bytes[63] |= 0xf0;  // S >= 2^252 + ... = L
        break;
      case Kind::kOffCurveR: {
        const ByteArray<32> r = not_a_point(rng_);
        std::copy(r.begin(), r.end(), item.sig.bytes.begin());
        break;
      }
      case Kind::kKeyNotAPoint: {
        PublicKey bad;  // all zero bytes: a point of order 4
        if (rng_.bernoulli(0.5)) bad.bytes = not_a_point(rng_);
        item.pub = VerifyingKey::enrolled(bad);
        break;
      }
      default:
        break;
    }
    return item;
  }

 private:
  struct Signer {
    Scalar a;
    PublicKey pub;
    VerifyingKey enrolled;
  };

  /// S = r + k a for R = [r]B + torsion.
  static Signature sign(const Signer& signer, const Scalar& r, const Point& torsion,
                        BytesView message) {
    Signature sig;
    const ByteArray<32> r_enc = point_compress(point_add(point_base_mul(r), torsion));
    std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
    const Hash512 kh = sha512_concat({view(r_enc), view(signer.pub.bytes), message});
    ByteArray<64> wide{};
    std::copy(kh.begin(), kh.end(), wide.begin());
    const ByteArray<32> s_enc = sc_to_bytes(sc_muladd(sc_from_bytes_wide(wide), signer.a, r));
    std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
    return sig;
  }

  Rng& rng_;
  Point order8_;
  std::vector<Signer> signers_;
};

TEST(MixedBatch, EachKindHasItsVerdict) {
  Rng rng(2301);
  ItemMaker maker(rng);
  for (int trial = 0; trial < 8; ++trial) {
    for (const Kind kind : kKinds) {
      const BatchItem item = maker.make(kind);
      const bool valid = kind == Kind::kHonest || kind == Kind::kSmallOrderR;
      EXPECT_EQ(verify(item.pub, item.message, item.sig), valid) << static_cast<int>(kind);
      const bool well_formed = kind == Kind::kHonest || kind == Kind::kSmallOrderR ||
                               kind == Kind::kForged;
      EXPECT_EQ(decode_signature(item.pub, item.message, item.sig).has_value(), well_formed)
          << static_cast<int>(kind);
    }
  }
}

TEST(MixedBatch, DetailedEqualsVerifyAndBatchEqualsTheirAnd) {
  // Every kind at every position of batches of 1-16, the other items drawn
  // half honest, half of a random kind.
  Rng rng(2302);
  ItemMaker maker(rng);
  Rng coeffs(2303);
  for (std::size_t n = 1; n <= 16; ++n) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const Kind kind : kKinds) {
        std::vector<BatchItem> items;
        for (std::size_t i = 0; i < n; ++i) {
          const Kind k = i == pos                ? kind
                         : rng.bernoulli(0.5) ? Kind::kHonest
                                              : kKinds[rng.uniform(std::size(kKinds))];
          items.push_back(maker.make(k));
        }
        std::vector<bool> expected;
        bool all = true;
        for (const BatchItem& it : items) {
          expected.push_back(verify(it.pub, it.message, it.sig));
          all = all && expected.back();
        }
        ASSERT_EQ(verify_batch_detailed(items, coeffs), expected)
            << "n=" << n << " pos=" << pos << " kind=" << static_cast<int>(kind);
        ASSERT_EQ(verify_batch(items, coeffs), all)
            << "n=" << n << " pos=" << pos << " kind=" << static_cast<int>(kind);
      }
    }
  }
}

TEST(MixedBatch, OnlyTwoOrMoreWellFormedItemsDrawCoefficients) {
  // A malformed item stays out of the combined equation, and a set with one
  // well-formed item checks verify's single equation: neither draws.
  Rng rng(2304);
  ItemMaker maker(rng);
  const auto draws = [](const std::vector<BatchItem>& items, bool detailed) {
    Rng coeffs(2305);
    if (detailed) {
      (void)verify_batch_detailed(items, coeffs);
    } else {
      (void)verify_batch(items, coeffs);
    }
    for (int n = 0; n <= 16; ++n) {
      Rng reference(2305);
      for (int i = 0; i < n; ++i) (void)reference.bytes(16);
      if (Rng probe = coeffs; probe.next_u64() == reference.next_u64()) return n;
    }
    return -1;
  };
  const std::vector<BatchItem> one = {maker.make(Kind::kHonest)};
  EXPECT_EQ(draws(one, false), 0);
  EXPECT_EQ(draws(one, true), 0);
  const std::vector<BatchItem> one_well_formed = {maker.make(Kind::kOffCurveR),
                                                  maker.make(Kind::kForged)};
  EXPECT_EQ(draws(one_well_formed, true), 0);
  std::vector<BatchItem> wave;
  for (int i = 0; i < 5; ++i) wave.push_back(maker.make(Kind::kHonest));
  wave[2] = maker.make(Kind::kNonCanonicalS);
  EXPECT_EQ(draws(wave, true), 4);
  EXPECT_EQ(draws(wave, false), 0);  // all-or-nothing: decided by the decode
  wave[2] = maker.make(Kind::kHonest);
  EXPECT_EQ(draws(wave, false), 5);
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
