#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "ledger/block.hpp"
#include "ledger/chain.hpp"

namespace repchain::ledger {
namespace {

struct Fixture {
  Fixture()
      : rng(777),
        provider_key(crypto::random_seed(rng)),
        leader_key(crypto::random_seed(rng)) {}

  TxRecord make_record(std::uint64_t seq, TxStatus status = TxStatus::kCheckedValid) {
    TxRecord rec;
    rec.tx = make_transaction(ProviderId(1), seq, seq * 10, to_bytes("p"), provider_key);
    rec.label = status == TxStatus::kUncheckedInvalid ? Label::kInvalid : Label::kValid;
    rec.status = status;
    return rec;
  }

  Block make_chain_block(BlockSerial serial, const crypto::Hash256& prev,
                         std::size_t ntx = 3) {
    std::vector<TxRecord> txs;
    for (std::size_t i = 0; i < ntx; ++i) {
      txs.push_back(make_record(serial * 100 + i));
    }
    return make_block(serial, serial, prev, GovernorId(0), std::move(txs), leader_key);
  }

  Rng rng;
  crypto::SigningKey provider_key;
  crypto::SigningKey leader_key;
};

TEST(TxRecord, EncodeDecodeRoundTrip) {
  Fixture f;
  for (TxStatus s : {TxStatus::kCheckedValid, TxStatus::kUncheckedInvalid,
                     TxStatus::kArguedValid}) {
    const TxRecord rec = f.make_record(1, s);
    const TxRecord decoded = TxRecord::decode(rec.encode());
    EXPECT_EQ(decoded.tx, rec.tx);
    EXPECT_EQ(decoded.label, rec.label);
    EXPECT_EQ(decoded.status, s);
  }
}

TEST(TxRecord, UncheckedFlag) {
  Fixture f;
  EXPECT_FALSE(f.make_record(1, TxStatus::kCheckedValid).unchecked());
  EXPECT_TRUE(f.make_record(1, TxStatus::kUncheckedInvalid).unchecked());
  EXPECT_FALSE(f.make_record(1, TxStatus::kArguedValid).unchecked());
}

TEST(TxStatusName, AllNamed) {
  EXPECT_STREQ(tx_status_name(TxStatus::kCheckedValid), "checked-valid");
  EXPECT_STREQ(tx_status_name(TxStatus::kUncheckedInvalid), "unchecked-invalid");
  EXPECT_STREQ(tx_status_name(TxStatus::kArguedValid), "argued-valid");
}

TEST(Block, EncodeDecodeRoundTrip) {
  Fixture f;
  const Block b = f.make_chain_block(1, crypto::Hash256{});
  const Block decoded = Block::decode(b.encode());
  EXPECT_EQ(decoded.serial, b.serial);
  EXPECT_EQ(decoded.round, b.round);
  EXPECT_EQ(decoded.prev_hash, b.prev_hash);
  EXPECT_EQ(decoded.tx_root, b.tx_root);
  EXPECT_EQ(decoded.leader, b.leader);
  EXPECT_EQ(decoded.txs.size(), b.txs.size());
  EXPECT_EQ(decoded.hash(), b.hash());
}

TEST(Block, TxRootCommitsToTransactions) {
  Fixture f;
  Block b = f.make_chain_block(1, crypto::Hash256{});
  EXPECT_EQ(b.tx_root, b.compute_tx_root());
  b.txs[0].status = TxStatus::kArguedValid;  // mutate TXList
  EXPECT_NE(b.tx_root, b.compute_tx_root());
}

TEST(Block, LeaderSignatureVerifies) {
  Fixture f;
  const Block b = f.make_chain_block(1, crypto::Hash256{});
  EXPECT_TRUE(crypto::verify(f.leader_key.public_key(), b.signed_preimage(), b.leader_sig));
}

TEST(Block, HashChangesWithContent) {
  Fixture f;
  const Block a = f.make_chain_block(1, crypto::Hash256{}, 2);
  const Block b = f.make_chain_block(1, crypto::Hash256{}, 3);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Block, EmptyBlockWellFormed) {
  Fixture f;
  const Block b = make_block(1, 1, crypto::Hash256{}, GovernorId(0), {}, f.leader_key);
  EXPECT_EQ(b.txs.size(), 0u);
  EXPECT_EQ(Block::decode(b.encode()).hash(), b.hash());
}

TEST(Block, TxInclusionProofsVerify) {
  Fixture f;
  const Block b = f.make_chain_block(1, crypto::Hash256{}, 7);
  for (std::size_t i = 0; i < b.txs.size(); ++i) {
    const auto proof = b.prove_tx(i);
    EXPECT_TRUE(Block::verify_tx_inclusion(b.tx_root, b.txs[i], proof)) << i;
  }
}

TEST(Block, TxInclusionProofRejectsWrongRecord) {
  Fixture f;
  const Block b = f.make_chain_block(1, crypto::Hash256{}, 4);
  const auto proof = b.prove_tx(0);
  EXPECT_FALSE(Block::verify_tx_inclusion(b.tx_root, b.txs[1], proof));
  TxRecord tampered = b.txs[0];
  tampered.status = TxStatus::kArguedValid;
  EXPECT_FALSE(Block::verify_tx_inclusion(b.tx_root, tampered, proof));
}

TEST(Block, TxInclusionProofOutOfRangeThrows) {
  Fixture f;
  const Block b = f.make_chain_block(1, crypto::Hash256{}, 2);
  EXPECT_THROW((void)b.prove_tx(2), ConfigError);
}

TEST(ChainStore, AppendAndRetrieve) {
  Fixture f;
  ChainStore chain;
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.head_hash(), crypto::Hash256{});

  const Block b1 = f.make_chain_block(1, chain.head_hash());
  chain.append(b1);
  const Block b2 = f.make_chain_block(2, chain.head_hash());
  chain.append(b2);

  EXPECT_EQ(chain.height(), 2u);
  ASSERT_TRUE(chain.retrieve(1).has_value());
  ASSERT_TRUE(chain.retrieve(2).has_value());
  EXPECT_EQ(chain.retrieve(1)->hash(), b1.hash());
  EXPECT_EQ(chain.retrieve(2)->hash(), b2.hash());
  EXPECT_FALSE(chain.retrieve(0).has_value());
  EXPECT_FALSE(chain.retrieve(3).has_value());
}

TEST(ChainStore, NoSkippingEnforced) {
  Fixture f;
  ChainStore chain;
  const Block b2 = f.make_chain_block(2, crypto::Hash256{});
  EXPECT_THROW(chain.append(b2), ProtocolError);

  chain.append(f.make_chain_block(1, chain.head_hash()));
  EXPECT_THROW(chain.append(f.make_chain_block(3, chain.head_hash())), ProtocolError);
}

TEST(ChainStore, ChainIntegrityEnforced) {
  Fixture f;
  ChainStore chain;
  chain.append(f.make_chain_block(1, chain.head_hash()));
  crypto::Hash256 wrong = chain.head_hash();
  wrong[0] ^= 1;
  EXPECT_THROW(chain.append(f.make_chain_block(2, wrong)), ProtocolError);
}

TEST(ChainStore, BadTxRootRejected) {
  Fixture f;
  ChainStore chain;
  Block b = f.make_chain_block(1, chain.head_hash());
  b.tx_root[5] ^= 0xff;
  EXPECT_THROW(chain.append(b), ProtocolError);
}

TEST(ChainStore, AuditPassesOnHonestChain) {
  Fixture f;
  ChainStore chain;
  for (BlockSerial s = 1; s <= 5; ++s) {
    chain.append(f.make_chain_block(s, chain.head_hash()));
  }
  EXPECT_TRUE(chain.audit());
}

TEST(ChainStore, SamePrefixAgreement) {
  Fixture f;
  ChainStore a, b;
  for (BlockSerial s = 1; s <= 3; ++s) {
    const Block blk = f.make_chain_block(s, a.head_hash());
    a.append(blk);
    b.append(blk);
  }
  EXPECT_TRUE(ChainStore::same_prefix(a, b));
  // One replica advances further: still in agreement on the common prefix.
  a.append(f.make_chain_block(4, a.head_hash()));
  EXPECT_TRUE(ChainStore::same_prefix(a, b));
  // Divergent block at the same height violates agreement.
  b.append(f.make_chain_block(4, b.head_hash(), 5));
  EXPECT_FALSE(ChainStore::same_prefix(a, b));
}

TEST(ChainStore, CountStatus) {
  Fixture f;
  ChainStore chain;
  std::vector<TxRecord> txs;
  txs.push_back(f.make_record(1, TxStatus::kCheckedValid));
  txs.push_back(f.make_record(2, TxStatus::kUncheckedInvalid));
  txs.push_back(f.make_record(3, TxStatus::kUncheckedInvalid));
  chain.append(make_block(1, 1, chain.head_hash(), GovernorId(0), std::move(txs),
                          f.leader_key));
  EXPECT_EQ(chain.count_status(TxStatus::kCheckedValid), 1u);
  EXPECT_EQ(chain.count_status(TxStatus::kUncheckedInvalid), 2u);
  EXPECT_EQ(chain.count_status(TxStatus::kArguedValid), 0u);
}

TEST(ChainStore, HeadHashIsTheHeadBlocksHashAfterAppendsCopiesAndLoad) {
  Fixture f;
  ChainStore chain;
  for (BlockSerial s = 1; s <= 4; ++s) {
    chain.append(f.make_chain_block(s, chain.head_hash(), s));
    EXPECT_EQ(chain.head_hash(), chain.head().hash()) << s;
  }
  // A rejected append leaves the head, and so its hash, as it was.
  EXPECT_THROW(chain.append(f.make_chain_block(6, chain.head_hash())), ProtocolError);
  EXPECT_EQ(chain.head_hash(), chain.head().hash());

  ChainStore copy = chain;
  EXPECT_EQ(copy.head_hash(), chain.head().hash());
  copy.append(f.make_chain_block(5, copy.head_hash()));
  EXPECT_EQ(copy.head_hash(), copy.head().hash());
  EXPECT_NE(copy.head_hash(), chain.head_hash()) << "the copy's append moved only its head";
  const ChainStore moved = std::move(copy);
  EXPECT_EQ(moved.head_hash(), moved.head().hash());

  const auto path = std::filesystem::temp_directory_path() / "repchain_head_hash_chain.bin";
  moved.save(path);
  const ChainStore loaded = ChainStore::load(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.head_hash(), loaded.head().hash());
  EXPECT_EQ(loaded.head_hash(), moved.head_hash());
}

TEST(ChainStorePersistence, SaveLoadRoundTrip) {
  Fixture f;
  ChainStore chain;
  for (BlockSerial s = 1; s <= 4; ++s) {
    chain.append(f.make_chain_block(s, chain.head_hash()));
  }
  const auto path = std::filesystem::temp_directory_path() / "repchain_test_chain.bin";
  chain.save(path);
  const ChainStore loaded = ChainStore::load(path);
  EXPECT_EQ(loaded.height(), 4u);
  EXPECT_EQ(loaded.head_hash(), chain.head_hash());
  EXPECT_TRUE(loaded.audit());
  EXPECT_TRUE(ChainStore::same_prefix(chain, loaded));
  std::filesystem::remove(path);
}

TEST(ChainStorePersistence, EmptyChainRoundTrip) {
  ChainStore chain;
  const auto path = std::filesystem::temp_directory_path() / "repchain_empty_chain.bin";
  chain.save(path);
  const ChainStore loaded = ChainStore::load(path);
  EXPECT_TRUE(loaded.empty());
  std::filesystem::remove(path);
}

TEST(ChainStorePersistence, TamperedFileRejected) {
  Fixture f;
  ChainStore chain;
  for (BlockSerial s = 1; s <= 3; ++s) {
    chain.append(f.make_chain_block(s, chain.head_hash()));
  }
  const auto path = std::filesystem::temp_directory_path() / "repchain_tampered.bin";
  chain.save(path);

  // Flip one byte somewhere in the middle of the file.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(200);
  char c;
  file.seekg(200);
  file.get(c);
  file.seekp(200);
  file.put(static_cast<char>(c ^ 0x01));
  file.close();

  EXPECT_THROW((void)ChainStore::load(path), Error);
  std::filesystem::remove(path);
}

TEST(ChainStorePersistence, MissingFileThrows) {
  EXPECT_THROW((void)ChainStore::load("/nonexistent/path/chain.bin"), ProtocolError);
}

TEST(ChainStorePersistence, BadMagicRejected) {
  const auto path = std::filesystem::temp_directory_path() / "repchain_badmagic.bin";
  std::ofstream out(path, std::ios::binary);
  out << "not a chain file at all, definitely longer than the magic";
  out.close();
  EXPECT_THROW((void)ChainStore::load(path), Error);
  std::filesystem::remove(path);
}

// --- Hostile chain files ----------------------------------------------------
//
// The on-disk layout is `str magic | u64 count | count * bytes(block)`; the
// magic string prefix occupies 4 + 17 bytes, so the count field sits at
// offset 21 and the first block's u32 length prefix at offset 29. Every
// malformed variant below must be rejected with DecodeError/ProtocolError —
// never an allocation blow-up, crash, or silent partial load.

struct HostileFile {
  // Each test gets its own scratch file: ctest runs cases of this suite
  // concurrently, and a shared path lets one test's rewrite/cleanup race
  // another's load.
  HostileFile()
      : path(std::filesystem::temp_directory_path() /
             (std::string("repchain_hostile_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".bin")) {
    Fixture f;
    ChainStore chain;
    for (BlockSerial s = 1; s <= 3; ++s) {
      chain.append(f.make_chain_block(s, chain.head_hash()));
    }
    chain.save(path);
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ~HostileFile() { std::filesystem::remove(path); }

  void rewrite(const std::vector<char>& data) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::filesystem::path path;
  std::vector<char> bytes;
};

constexpr std::size_t kCountOffset = 4 + 17;       // u64 block count
constexpr std::size_t kFirstLenOffset = 21 + 8;    // first block's u32 length

TEST(ChainStorePersistence, TruncatedFilesRejected) {
  HostileFile h;
  // Cuts inside the magic, the count, a length prefix, and block payloads.
  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{4}, kCountOffset - 1, kCountOffset + 3,
        kFirstLenOffset + 2, h.bytes.size() / 2, h.bytes.size() - 1}) {
    h.rewrite(std::vector<char>(h.bytes.begin(),
                                h.bytes.begin() + static_cast<long>(cut)));
    EXPECT_THROW((void)ChainStore::load(h.path), Error) << "cut at " << cut;
  }
}

TEST(ChainStorePersistence, OversizedCountRejected) {
  // A count field claiming ~2^64 blocks must fail the expect_count guard up
  // front instead of looping or reserving absurd memory.
  HostileFile h;
  auto data = h.bytes;
  for (std::size_t i = 0; i < 8; ++i) {
    data[kCountOffset + i] = static_cast<char>(0xff);
  }
  h.rewrite(data);
  EXPECT_THROW((void)ChainStore::load(h.path), DecodeError);
}

TEST(ChainStorePersistence, OversizedBlockLengthRejected) {
  // A block length prefix far past the end of the file must be caught by
  // the reader's bounds check, not trusted as an allocation size.
  HostileFile h;
  auto data = h.bytes;
  data[kFirstLenOffset + 0] = static_cast<char>(0xff);
  data[kFirstLenOffset + 1] = static_cast<char>(0xff);
  data[kFirstLenOffset + 2] = static_cast<char>(0xff);
  data[kFirstLenOffset + 3] = static_cast<char>(0x7f);
  h.rewrite(data);
  EXPECT_THROW((void)ChainStore::load(h.path), DecodeError);
}

TEST(ChainStorePersistence, HeaderByteFlipsRejected) {
  // Any flip in the structural header (magic, count, first length prefix)
  // must be rejected.
  HostileFile h;
  for (std::size_t i = 0; i < kFirstLenOffset + 4; ++i) {
    auto data = h.bytes;
    data[i] = static_cast<char>(data[i] ^ 0x20);
    h.rewrite(data);
    EXPECT_THROW((void)ChainStore::load(h.path), Error) << "flip at " << i;
  }
}

TEST(ChainStorePersistence, BodyByteFlipsNeverCrash) {
  // Flips in block bodies must either be detected (DecodeError from the
  // block decoder, ProtocolError from append's integrity checks) or — for
  // the rare bit that is not integrity-covered, like a signature byte the
  // loader does not re-verify — still yield a well-formed store.
  HostileFile h;
  std::size_t rejected = 0;
  for (std::size_t i = kFirstLenOffset; i < h.bytes.size(); i += 11) {
    auto data = h.bytes;
    data[i] = static_cast<char>(data[i] ^ 0x01);
    h.rewrite(data);
    try {
      const ChainStore loaded = ChainStore::load(h.path);
      EXPECT_EQ(loaded.height(), 3u);
    } catch (const Error&) {
      ++rejected;  // expected for integrity-covered bytes
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(ChainStorePersistence, TrailingGarbageRejected) {
  HostileFile h;
  auto data = h.bytes;
  data.push_back(0x00);
  h.rewrite(data);
  EXPECT_THROW((void)ChainStore::load(h.path), DecodeError);
}

TEST(ChainStore, HeadOnEmptyThrows) {
  ChainStore chain;
  EXPECT_THROW((void)chain.head(), ProtocolError);
}

}  // namespace
}  // namespace repchain::ledger
