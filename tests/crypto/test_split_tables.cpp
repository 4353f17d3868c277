// Enrolled keys multiply -A over 32-bit strides against stride tables; one-off
// keys (a PublicKey converted per call) still take the full-length row. The
// one-off path and oracle.hpp's ladder are the two oracles here: enrolled
// verification, signature_point under an enrolled key and sets over enrolled
// keys must agree with both, and the lazily built tables must be shared,
// built once, and safe to build from several threads at once.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/keygen.hpp"
#include "oracle.hpp"

namespace repchain::crypto {
namespace {

using u64 = std::uint64_t;

::testing::AssertionResult same_point(const Point& p, const Point& q) {
  if (point_compress(p) == point_compress(q)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << to_hex(view(point_compress(p))) << " vs "
                                       << to_hex(view(point_compress(q)));
}

/// Verification with an enrolled key, a one-off key and the ladder oracle;
/// all three must agree, and the verdict is returned.
bool verify_three_ways(const SigningKey& signer, BytesView message, const Signature& sig) {
  const VerifyingKey enrolled = VerifyingKey::enrolled(signer.public_key());
  const bool by_tables = verify(enrolled, message, sig);
  EXPECT_EQ(by_tables, verify(signer.public_key(), message, sig)) << "one-off key";
  EXPECT_EQ(by_tables, verify_by_ladder(signer.public_key(), message, sig)) << "ladder";
  return by_tables;
}

TEST(SplitTables, EnrolledVerifyMatchesOneOffAndLadder) {
  Rng rng(1801);
  for (int i = 0; i < 1000; ++i) {
    const SigningKey signer(random_seed(rng));
    const Bytes message = rng.bytes(static_cast<std::size_t>(i % 97));
    Signature sig = signer.sign(message);
    ASSERT_TRUE(verify_three_ways(signer, message, sig)) << i;
    if (i % 10 != 0) continue;
    // Forged variants: one bit of S, of R, of the message.
    Signature bad_s = sig, bad_r = sig;
    bad_s.bytes[32 + i % 31] ^= static_cast<std::uint8_t>(1u << (i % 8));
    bad_r.bytes[i % 32] ^= static_cast<std::uint8_t>(1u << (i % 7));
    Bytes bad_message = message;
    bad_message.push_back(0);
    bad_message[static_cast<std::size_t>(i) % bad_message.size()] ^= 0x80;
    EXPECT_FALSE(verify_three_ways(signer, message, bad_s)) << i;
    EXPECT_FALSE(verify_three_ways(signer, message, bad_r)) << i;
    EXPECT_FALSE(verify_three_ways(signer, bad_message, sig)) << i;
  }
}

// Scalars whose 64-bit limbs or 32-bit strides are zero, all ones, or L - 1's.
std::vector<Scalar> edge_scalars() {
  constexpr u64 kOnes = ~u64{0};
  return {
      Scalar{{0, 0, 0, 0}},
      Scalar{{1, 0, 0, 0}},
      Scalar{{kOnes, 0, 0, 0}},
      Scalar{{0, kOnes, 0, 0}},
      Scalar{{0, 0, kOnes, 0}},
      Scalar{{0, 0, 0, 0x0fffffffffffffffULL}},
      Scalar{{kOnes, kOnes, kOnes, 0x0fffffffffffffffULL}},  // 2^252 - 1
      Scalar{{kOnes, 0, kOnes, 0}},
      Scalar{{0, kOnes, 0, 0x0fffffffffffffffULL}},
      Scalar{{0x5812631a5cf5d3ecULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL}},  // L-1
      Scalar{{0xffffffffULL, 0xffffffff00000000ULL, 0xffffffffULL, 0x0fffffff00000000ULL}},
      Scalar{{0xffffffff00000000ULL, 0xffffffffULL, 0xffffffff00000000ULL, 0xffffffffULL}},
  };
}

TEST(SplitTables, EdgeScalarsMatchOneOffAndLadder) {
  Rng rng(1802);
  const SigningKey signer(random_seed(rng));
  const VerifyingKey enrolled = VerifyingKey::enrolled(signer.public_key());
  const VerifyingKey one_off = signer.public_key();
  const Point minus_a = point_neg(*enrolled.point());
  const std::vector<Scalar> scalars = edge_scalars();
  for (const Scalar& k : scalars) {
    for (const Scalar& s : scalars) {
      const SignatureScalars sig{s, k, {}};  // [s]B + [k](-A)
      const Point fast = signature_point(enrolled, sig);
      const Point slow =
          point_add(point_scalar_mul(minus_a, k), point_scalar_mul(point_base(), s));
      EXPECT_TRUE(same_point(fast, slow)) << to_hex(view(sc_to_bytes(k))) << " "
                                          << to_hex(view(sc_to_bytes(s)));
      EXPECT_TRUE(same_point(signature_point(one_off, sig), slow));
    }
  }
  // The same edge values as a signature's S: rejected on every path.
  const Bytes message = to_bytes("edge");
  for (const Scalar& s : scalars) {
    Signature sig = signer.sign(message);
    const ByteArray<32> s_enc = sc_to_bytes(s);
    std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
    EXPECT_FALSE(verify_three_ways(signer, message, sig)) << to_hex(view(s_enc));
  }
}

enum class KeyMix { kOne, kThree, kAllDistinct };

/// n items signed under 1, 3 or n enrolled keys; odd positions use a one-off
/// copy of their key instead, and every fourth item repeats its predecessor
/// exactly.
std::vector<BatchItem> batch_of(Rng& rng, std::size_t n, KeyMix mix,
                                std::vector<SigningKey>& signers) {
  const std::size_t keys = mix == KeyMix::kOne ? 1 : (mix == KeyMix::kThree ? 3 : n);
  signers.clear();
  std::vector<VerifyingKey> enrolled;
  for (std::size_t k = 0; k < keys; ++k) {
    signers.emplace_back(random_seed(rng));
    enrolled.push_back(VerifyingKey::enrolled(signers.back().public_key()));
  }
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      items.push_back(items.back());
      continue;
    }
    const std::size_t k = i % keys;
    BatchItem item;
    item.pub = i % 2 == 1 ? VerifyingKey(signers[k].public_key()) : enrolled[k];
    item.message = rng.bytes(24);
    item.sig = signers[k].sign(item.message);
    items.push_back(std::move(item));
  }
  return items;
}

TEST(SplitTables, BatchesMatchPerItemVerify) {
  Rng rng(1804);
  std::vector<SigningKey> signers;
  for (std::size_t n = 1; n <= 16; ++n) {
    for (const KeyMix mix : {KeyMix::kOne, KeyMix::kThree, KeyMix::kAllDistinct}) {
      const std::vector<BatchItem> items = batch_of(rng, n, mix, signers);
      ASSERT_TRUE(verify_batch(items, rng)) << "n=" << n;
      for (std::size_t forged = 0; forged < n; ++forged) {
        std::vector<BatchItem> batch = items;
        batch[forged].sig.bytes[forged % 2 == 0 ? 3 : 35] ^= 0x04;  // R or S
        EXPECT_FALSE(verify_batch(batch, rng)) << "n=" << n << " forged=" << forged;
        const std::vector<bool> detailed = verify_batch_detailed(batch);
        for (std::size_t i = 0; i < n; ++i) {
          const bool single = verify(batch[i].pub, batch[i].message, batch[i].sig);
          EXPECT_EQ(detailed[i], single) << "n=" << n << " forged=" << forged << " i=" << i;
          EXPECT_EQ(single, i != forged) << "n=" << n << " forged=" << forged << " i=" << i;
        }
      }
    }
  }
}

TEST(SplitTables, CopiesShareOneBuildAndConversionsBuildNone) {
  Rng rng(1805);
  const SigningKey signer(random_seed(rng));
  const VerifyingKey enrolled = VerifyingKey::enrolled(signer.public_key());
  const VerifyingKey copy = enrolled;
  const BatchItem item{enrolled, to_bytes("m"), signer.sign(to_bytes("m"))};
  const KeyTables* tables = copy.tables();
  ASSERT_NE(tables, nullptr);
  EXPECT_EQ(enrolled.tables(), tables);
  EXPECT_EQ(item.pub.tables(), tables);
  // A second enrollment of the same bytes is a second key with its own block.
  EXPECT_NE(VerifyingKey::enrolled(signer.public_key()).tables(), tables);

  const VerifyingKey one_off = signer.public_key();
  EXPECT_TRUE(verify(one_off, item.message, item.sig));
  EXPECT_EQ(one_off.tables(), nullptr);

  PublicKey off_curve;  // the first small y with no x on the curve
  off_curve.bytes[0] = 2;
  while (point_decompress(off_curve.bytes)) ++off_curve.bytes[0];
  EXPECT_EQ(VerifyingKey::enrolled(off_curve).tables(), nullptr) << "not a curve point";
}

TEST(SplitTables, ConcurrentFirstVerificationsBuildOnce) {
  Rng rng(1806);
  const SigningKey signer(random_seed(rng));
  const VerifyingKey shared = VerifyingKey::enrolled(signer.public_key());
  const Bytes message = to_bytes("eight threads, one build");
  const Signature sig = signer.sign(message);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<const KeyTables*> seen(kThreads, nullptr);
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const VerifyingKey copy = shared;
      ok[static_cast<std::size_t>(t)] = verify(copy, message, sig) ? 1 : 0;
      seen[static_cast<std::size_t>(t)] = copy.tables();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[static_cast<std::size_t>(t)], 1) << t;
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], shared.tables()) << t;
  }
  EXPECT_NE(shared.tables(), nullptr);
}

}  // namespace
}  // namespace repchain::crypto
