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
  const auto result = verify_batch_detailed(items);
  ASSERT_EQ(result.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result[i], i != 2 && i != 5) << i;
  }
}

TEST(BatchVerify, DetailedAllValidShortCircuits) {
  Rng rng(9);
  const auto items = make_batch(rng, 4);
  const auto result = verify_batch_detailed(items);
  for (bool ok : result) EXPECT_TRUE(ok);
}

// --- Mixed batches: every item gets verify's verdict --------------------------

// The kinds past kKeyNotAPoint aim at the check that compares enc([S]B - [k]A)
// with R's bytes: a negated R matches its y but not its sign, a non-canonical
// encoding of the right point differs in y's bytes yet decodes to it, and
// random bytes are whatever they decode to.
enum class Kind {
  kHonest,
  kForged,
  kNonCanonicalS,
  kOffCurveR,
  kSmallOrderR,
  kKeyNotAPoint,
  kNegatedR,
  kNonCanonicalR,
  kRandomBytes,
};
constexpr Kind kKinds[] = {Kind::kHonest,       Kind::kForged,       Kind::kNonCanonicalS,
                           Kind::kOffCurveR,    Kind::kSmallOrderR,  Kind::kKeyNotAPoint,
                           Kind::kNegatedR,     Kind::kNonCanonicalR, Kind::kRandomBytes};

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

/// Builds batch items of each kind over signers who know their secret
/// scalars, so they can also sign with a nonce point R + T for T of order 8,
/// negate their nonce, or encode R as they like. Keys are dealt at random,
/// each item's as an enrolled or a one-off copy, or only enrolled copies.
class ItemMaker {
 public:
  explicit ItemMaker(Rng& rng, int signers = 3, bool only_enrolled = false)
      : rng_(rng), only_enrolled_(only_enrolled) {
    const Bytes t = from_hex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a");
    ByteArray<32> t_enc{};
    std::copy(t.begin(), t.end(), t_enc.begin());
    order8_ = *point_decompress(t_enc);
    for (int i = 0; i < signers; ++i) {
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
    item.pub = only_enrolled_ || rng_.bernoulli(0.5) ? signer.enrolled : VerifyingKey(signer.pub);
    item.message = rng_.bytes(24);
    const Point torsion = kind == Kind::kSmallOrderR ? order8_ : point_identity();
    item.sig = sign(signer, random_scalar(rng_), torsion, item.message);
    switch (kind) {
      case Kind::kNegatedR:
        item.sig = sign_negated(signer, random_scalar(rng_), item.message);
        break;
      case Kind::kNonCanonicalR:
        item.sig = sign_non_canonical_r(signer, item.message);
        break;
      case Kind::kRandomBytes: {
        const Bytes raw = rng_.bytes(64);
        std::copy(raw.begin(), raw.end(), item.sig.bytes.begin());
        break;
      }
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

  /// k = H(R || A || M) for R's bytes as given.
  static Scalar challenge(const ByteArray<32>& r_enc, const Signer& signer, BytesView message) {
    const Hash512 kh = sha512_concat({view(r_enc), view(signer.pub.bytes), message});
    ByteArray<64> wide{};
    std::copy(kh.begin(), kh.end(), wide.begin());
    return sc_from_bytes_wide(wide);
  }

  /// The signature (R's bytes, S).
  static Signature assemble(const ByteArray<32>& r_enc, const Scalar& s) {
    Signature sig;
    const ByteArray<32> s_enc = sc_to_bytes(s);
    std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
    std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
    return sig;
  }

  /// S = r + k a for R = [r]B + torsion.
  static Signature sign(const Signer& signer, const Scalar& r, const Point& torsion,
                        BytesView message) {
    const ByteArray<32> r_enc = point_compress(point_add(point_base_mul(r), torsion));
    return assemble(r_enc, sc_muladd(challenge(r_enc, signer, message), signer.a, r));
  }

  /// S = k a - r for R = [r]B, so [S]B - [k]A = -R: R's y, the other sign.
  /// verify rejects it.
  static Signature sign_negated(const Signer& signer, const Scalar& r, BytesView message) {
    const ByteArray<32> r_enc = point_compress(point_base_mul(r));
    const Scalar minus_one{{0x5812631a5cf5d3ecULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL}};
    const Scalar minus_r = sc_muladd(minus_one, r, sc_zero());
    return assemble(r_enc, sc_muladd(challenge(r_enc, signer, message), signer.a, minus_r));
  }

  /// R the identity (y = 1) encoded as y = p + 1, and S = k a. R decodes,
  /// and the equation holds, so verify accepts what no canonical
  /// compression can match.
  static Signature sign_non_canonical_r(const Signer& signer, BytesView message) {
    ByteArray<32> r_enc;
    r_enc.fill(0xff);
    r_enc[0] = 0xee;  // 2^255 - 18 = p + 1
    r_enc[31] = 0x7f;
    return assemble(r_enc, sc_muladd(challenge(r_enc, signer, message), signer.a, sc_zero()));
  }

  Rng& rng_;
  bool only_enrolled_;
  Point order8_;
  std::vector<Signer> signers_;
};

TEST(MixedBatch, EachKindHasItsVerdict) {
  Rng rng(2301);
  ItemMaker maker(rng);
  for (int trial = 0; trial < 8; ++trial) {
    for (const Kind kind : kKinds) {
      const BatchItem item = maker.make(kind);
      const bool valid = kind == Kind::kHonest || kind == Kind::kSmallOrderR ||
                         kind == Kind::kNonCanonicalR;
      EXPECT_EQ(verify(item.pub, item.message, item.sig), valid) << static_cast<int>(kind);
      if (kind == Kind::kRandomBytes) continue;  // it decodes or not by chance
      const bool well_formed = valid || kind == Kind::kForged || kind == Kind::kNegatedR;
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
        ASSERT_EQ(verify_batch_detailed(items), expected)
            << "n=" << n << " pos=" << pos << " kind=" << static_cast<int>(kind);
        ASSERT_EQ(verify_batch(items, coeffs), all)
            << "n=" << n << " pos=" << pos << " kind=" << static_cast<int>(kind);
      }
    }
  }
}

TEST(MixedBatch, OnlyTwoOrMoreWellFormedItemsDrawCoefficients) {
  // verify_batch draws one coefficient per item of a combined equation: a
  // one-item batch is verify, and a malformed item decides the batch before
  // any draw. Per-item verdicts (verify_batch_detailed) take no Rng at all.
  Rng rng(2304);
  ItemMaker maker(rng);
  const auto draws = [](const std::vector<BatchItem>& items) {
    Rng coeffs(2305);
    (void)verify_batch(items, coeffs);
    for (int n = 0; n <= 16; ++n) {
      Rng reference(2305);
      for (int i = 0; i < n; ++i) (void)reference.bytes(16);
      if (Rng probe = coeffs; probe.next_u64() == reference.next_u64()) return n;
    }
    return -1;
  };
  const std::vector<BatchItem> one = {maker.make(Kind::kHonest)};
  EXPECT_EQ(draws(one), 0);
  std::vector<BatchItem> wave;
  for (int i = 0; i < 5; ++i) wave.push_back(maker.make(Kind::kHonest));
  wave[2] = maker.make(Kind::kNonCanonicalS);
  EXPECT_EQ(draws(wave), 0);  // all-or-nothing: decided by the decode
  wave[2] = maker.make(Kind::kHonest);
  EXPECT_EQ(draws(wave), 5);
}

TEST(MixedBatch, PerItemVerdictsEqualVerifyOverOneToFiveEnrolledKeys) {
  // Sets of 1-16 items under 1-5 enrolled keys, one item of each kind at a
  // random position and the rest honest or of a random kind: every verdict of
  // the per-item path (one shared inversion, the fallback for a mismatch) is
  // verify's, and none depends on the items beside it.
  for (int keys = 1; keys <= 5; ++keys) {
    Rng rng(2306 + static_cast<std::uint64_t>(keys));
    ItemMaker maker(rng, keys, /*only_enrolled=*/true);
    for (std::size_t n = 1; n <= 16; ++n) {
      for (const Kind kind : kKinds) {
        const std::size_t pos = rng.uniform(n);
        std::vector<BatchItem> items;
        for (std::size_t i = 0; i < n; ++i) {
          const Kind k = i == pos                ? kind
                         : rng.bernoulli(0.5) ? Kind::kHonest
                                              : kKinds[rng.uniform(std::size(kKinds))];
          items.push_back(maker.make(k));
        }
        std::vector<bool> expected;
        for (const BatchItem& it : items) expected.push_back(verify(it.pub, it.message, it.sig));
        ASSERT_EQ(verify_batch_detailed(items), expected)
            << "keys=" << keys << " n=" << n << " pos=" << pos
            << " kind=" << static_cast<int>(kind);
        ASSERT_EQ(verify_batch_detailed(std::span(items).subspan(pos, 1)),
                  std::vector<bool>{expected[pos]})
            << "keys=" << keys << " n=" << n << " kind=" << static_cast<int>(kind);
      }
    }
  }
}

TEST(MixedBatch, ReplayedSignatureIsJudgedOnItsOwnMessage) {
  // An item carrying another item's valid signature over its own message:
  // its R bytes are exactly that item's compressed point, so only its own
  // point may be compared with them, wherever the two sit in the set.
  Rng rng(2307);
  ItemMaker maker(rng, 2, /*only_enrolled=*/true);
  for (std::size_t n = 2; n <= 6; ++n) {
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        if (from == to) continue;
        std::vector<BatchItem> items;
        for (std::size_t i = 0; i < n; ++i) items.push_back(maker.make(Kind::kHonest));
        items[to].pub = items[from].pub;
        items[to].sig = items[from].sig;
        std::vector<bool> expected(n, true);
        expected[to] = false;
        ASSERT_EQ(verify(items[to].pub, items[to].message, items[to].sig), false);
        ASSERT_EQ(verify_batch_detailed(items), expected) << n << " " << from << "->" << to;
      }
    }
  }
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
