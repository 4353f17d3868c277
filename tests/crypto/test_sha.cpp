#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace repchain::crypto {
namespace {

Bytes msg(std::string_view s) { return to_bytes(s); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(view(Sha256::hash(msg("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(view(Sha256::hash(msg("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(view(Sha256::hash(
                msg("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(msg(chunk));
  EXPECT_EQ(to_hex(view(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = msg("the quick brown fox jumps over the lazy dog, repeatedly");
  Sha256 inc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    inc.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(inc.finish(), Sha256::hash(data));
}

TEST(Sha256, UnevenChunkingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST(Sha256, BoundarySizesDiffer) {
  // Messages straddling the 55/56/63/64-byte padding boundaries all hash
  // without error and produce distinct digests.
  std::set<std::string> seen;
  for (std::size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const Bytes data(n, 0x5a);
    seen.insert(to_hex(view(Sha256::hash(data))));
  }
  EXPECT_EQ(seen.size(), 11u);
}

TEST(Sha256, ConcatHelper) {
  const Bytes a = msg("ab"), b = msg("c");
  EXPECT_EQ(sha256_concat({a, b}), Sha256::hash(msg("abc")));
}

// The portable compression is the reference: the known-answer vectors above
// run on whichever path this CPU picks, and the SHA-extension rounds must
// give the portable rounds' state from any state and block, and the same
// digests over every message length up to 300 bytes (0 to 5 blocks, every
// padding split).
TEST(Sha256, ShaExtensionsMatchPortableCompress) {
#if defined(__x86_64__)
  if (!sha256_has_sha_extensions()) GTEST_SKIP() << "this CPU has no SHA extensions";
  Rng rng(2401);
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint32_t, 8> portable{};
    for (std::uint32_t& word : portable) word = static_cast<std::uint32_t>(rng.next_u64());
    std::array<std::uint32_t, 8> extensions = portable;
    const Bytes block = rng.bytes(Sha256::kBlockSize);
    sha256_compress_portable(portable.data(), block.data());
    sha256_compress_sha_extensions(extensions.data(), block.data());
    ASSERT_EQ(extensions, portable) << "state and block " << i;
  }
  for (std::size_t len = 0; len <= 300; ++len) {
    const Bytes data = rng.bytes(len);
    const Hash256 reference = Sha256(&sha256_compress_portable).update(data).finish();
    ASSERT_EQ(Sha256(&sha256_compress_sha_extensions).update(data).finish(), reference) << len;
    ASSERT_EQ(Sha256::hash(data), reference) << len;
  }
#else
  GTEST_SKIP() << "the SHA-extension path is x86-64 only";
#endif
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(to_hex(view(Sha512::hash(msg("")))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(view(Sha512::hash(msg("abc")))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(to_hex(view(Sha512::hash(msg(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  Sha512 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(msg(chunk));
  EXPECT_EQ(to_hex(view(h.finish())),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  const Bytes data = msg("incremental hashing should match one-shot hashing exactly");
  Sha512 inc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    inc.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(inc.finish(), Sha512::hash(data));
}

TEST(Sha512, BoundarySizesDiffer) {
  std::set<std::string> seen;
  for (std::size_t n : {0u, 1u, 111u, 112u, 113u, 127u, 128u, 129u, 255u, 256u}) {
    const Bytes data(n, 0xa5);
    seen.insert(to_hex(view(Sha512::hash(data))));
  }
  EXPECT_EQ(seen.size(), 10u);
}

}  // namespace
}  // namespace repchain::crypto
