// Robustness sweep: every wire decoder — and the config decoder a node
// process runs on its config blob — must survive arbitrary byte strings by
// throwing DecodeError (or succeeding), never crashing, looping, or throwing
// anything else. Seeds are parameterized; each seed drives random buffers of
// varied sizes plus mutation fuzz over valid encodings.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "common/errors.hpp"

#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "identity/certificate.hpp"
#include "ledger/block.hpp"
#include "ledger/chain.hpp"
#include "ledger/transaction.hpp"
#include "protocol/leader_election.hpp"
#include "protocol/messages.hpp"
#include "protocol/stake.hpp"
#include "sim/harness/spec_codec.hpp"
#include "storage/wal_format.hpp"

namespace repchain {
namespace {

using DecoderFn = std::function<void(BytesView)>;

std::vector<std::pair<const char*, DecoderFn>> decoders() {
  return {
      {"Transaction", [](BytesView d) { (void)ledger::Transaction::decode(d); }},
      {"LabeledTransaction",
       [](BytesView d) { (void)ledger::LabeledTransaction::decode(d); }},
      {"TxRecord", [](BytesView d) { (void)ledger::TxRecord::decode(d); }},
      {"Block", [](BytesView d) { (void)ledger::Block::decode(d); }},
      {"Certificate", [](BytesView d) { (void)identity::Certificate::decode(d); }},
      {"ArgueMsg", [](BytesView d) { (void)protocol::ArgueMsg::decode(d); }},
      {"VrfAnnounceMsg", [](BytesView d) { (void)protocol::VrfAnnounceMsg::decode(d); }},
      {"StakeTxMsg", [](BytesView d) { (void)protocol::StakeTxMsg::decode(d); }},
      {"StateProposalMsg",
       [](BytesView d) { (void)protocol::StateProposalMsg::decode(d); }},
      {"StateSignatureMsg",
       [](BytesView d) { (void)protocol::StateSignatureMsg::decode(d); }},
      {"StateCommitMsg", [](BytesView d) { (void)protocol::StateCommitMsg::decode(d); }},
      {"ExpelMsg", [](BytesView d) { (void)protocol::ExpelMsg::decode(d); }},
      {"StakeLedger", [](BytesView d) { (void)protocol::StakeLedger::decode(d); }},
      {"ScenarioConfig", [](BytesView d) { (void)sim::decode_config(d); }},
  };
}

/// A config whose encoding exercises every variable-length section: collector
/// behaviours with per-provider overrides, genesis stakes and a crash list.
sim::ScenarioConfig fuzz_config() {
  sim::ScenarioConfig cfg;
  cfg.topology = {6, 3, 3, 2};
  cfg.rounds = 5;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::misreporting(0.25)};
  cfg.behaviors[1].flip_by_provider = {{2, 0.5}};
  cfg.governor_stakes = {3, 2, 1};
  sim::CrashPlan first;
  first.governor = 1;
  first.crash_round = 2;
  first.crash_offset = 100 * kMillisecond;
  first.restart_round = 4;
  sim::CrashPlan second = first;
  second.governor = 2;
  second.restart_round = 3;
  cfg.crashes = {first, second};
  sim::normalize_config(cfg);
  return cfg;
}

/// Run a decoder on `data`; pass iff it returns or throws DecodeError.
void expect_graceful(const char* name, const DecoderFn& fn, BytesView data) {
  try {
    fn(data);
  } catch (const DecodeError&) {
    // expected failure mode
  } catch (const std::exception& e) {
    FAIL() << name << " threw non-DecodeError: " << e.what();
  }
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, RandomBuffersAreHandledGracefully) {
  Rng rng(GetParam());
  for (const auto& [name, fn] : decoders()) {
    for (std::size_t size : {0u, 1u, 7u, 32u, 64u, 100u, 300u, 1000u}) {
      for (int i = 0; i < 20; ++i) {
        const Bytes data = rng.bytes(size);
        expect_graceful(name, fn, data);
      }
    }
  }
}

TEST_P(DecodeFuzz, MutatedValidEncodingsAreHandledGracefully) {
  Rng rng(GetParam() ^ 0xf00dULL);
  crypto::SigningKey key(crypto::random_seed(rng));

  const auto tx = ledger::make_transaction(ProviderId(1), 2, 3, rng.bytes(16), key);
  const auto ltx = ledger::make_labeled(tx, ledger::Label::kInvalid, CollectorId(4), key);
  ledger::TxRecord rec;
  rec.tx = tx;
  const auto block =
      ledger::make_block(1, 1, crypto::Hash256{}, GovernorId(0), {rec}, key);
  const auto argue = protocol::make_argue(ProviderId(1), tx, 9, key);
  const auto announce = protocol::make_announcement(3, GovernorId(1), 2, key);
  const auto stake_tx = protocol::make_stake_tx(GovernorId(0), GovernorId(1), 5, 6, key);

  struct Case {
    const char* name;
    Bytes encoding;
    DecoderFn fn;
  };
  const std::vector<Case> cases = {
      {"Transaction", tx.encode(),
       [](BytesView d) { (void)ledger::Transaction::decode(d); }},
      {"LabeledTransaction", ltx.encode(),
       [](BytesView d) { (void)ledger::LabeledTransaction::decode(d); }},
      {"Block", block.encode(), [](BytesView d) { (void)ledger::Block::decode(d); }},
      {"ArgueMsg", argue.encode(),
       [](BytesView d) { (void)protocol::ArgueMsg::decode(d); }},
      {"VrfAnnounceMsg", announce.encode(),
       [](BytesView d) { (void)protocol::VrfAnnounceMsg::decode(d); }},
      {"StakeTxMsg", stake_tx.encode(),
       [](BytesView d) { (void)protocol::StakeTxMsg::decode(d); }},
      {"ScenarioConfig", sim::encode_config(fuzz_config()),
       [](BytesView d) { (void)sim::decode_config(d); }},
  };

  for (const auto& c : cases) {
    // Truncations at every prefix length.
    for (std::size_t len = 0; len < c.encoding.size(); ++len) {
      expect_graceful(c.name, c.fn, BytesView(c.encoding.data(), len));
    }
    // Random single-byte corruptions (length fields included).
    for (int i = 0; i < 200; ++i) {
      Bytes mutated = c.encoding;
      mutated[rng.uniform(mutated.size())] = static_cast<std::uint8_t>(rng.next_u64());
      expect_graceful(c.name, c.fn, mutated);
    }
    // Random extensions.
    for (int i = 0; i < 20; ++i) {
      Bytes extended = c.encoding;
      append(extended, rng.bytes(1 + rng.uniform(16)));
      expect_graceful(c.name, c.fn, extended);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(1, 2, 3, 4, 5));

// --- Storage-layer decoders --------------------------------------------------
//
// The WAL scanner and snapshot envelope face bytes that survived a crash, so
// their contract is slightly different from the network decoders: scan_wal
// may *succeed* on arbitrary input (dropping a torn tail) or throw
// ProtocolError on a CRC-mismatching complete frame; decode_snapshot throws
// DecodeError. ChainStore::load reads whole files and rejects with either
// DecodeError (framing) or ProtocolError (chain integrity).

/// Pass iff `fn` returns or throws DecodeError/ProtocolError.
void expect_graceful_storage(const char* name, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DecodeError&) {
  } catch (const ProtocolError&) {
  } catch (const std::exception& e) {
    FAIL() << name << " threw unexpected exception: " << e.what();
  }
}

class StorageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageFuzz, WalScanHandlesArbitraryBytes) {
  Rng rng(GetParam() ^ 0x3a1ULL);
  for (std::size_t size : {0u, 1u, 7u, 8u, 9u, 32u, 100u, 1000u}) {
    for (int i = 0; i < 50; ++i) {
      const Bytes data = rng.bytes(size);
      expect_graceful_storage("scan_wal", [&] { (void)storage::scan_wal(data); });
    }
  }
}

TEST_P(StorageFuzz, WalScanMutationsOfValidLog) {
  Rng rng(GetParam() ^ 0x3a2ULL);
  Bytes wal;
  for (int i = 0; i < 4; ++i) storage::append_frame(wal, rng.bytes(8 + i * 5));
  for (std::size_t len = 0; len <= wal.size(); ++len) {
    // Truncations must never throw: a cut log is a torn tail, not corruption.
    const BytesView prefix(wal.data(), len);
    const auto scan = storage::scan_wal(prefix);
    EXPECT_LE(scan.clean_bytes, len);
  }
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = wal;
    mutated[rng.uniform(mutated.size())] = static_cast<std::uint8_t>(rng.next_u64());
    expect_graceful_storage("scan_wal", [&] { (void)storage::scan_wal(mutated); });
  }
}

TEST_P(StorageFuzz, SnapshotDecodeHandlesArbitraryAndMutatedBytes) {
  Rng rng(GetParam() ^ 0x3a3ULL);
  for (std::size_t size : {0u, 1u, 24u, 32u, 100u, 1000u}) {
    for (int i = 0; i < 50; ++i) {
      const Bytes data = rng.bytes(size);
      try {
        (void)storage::decode_snapshot(data);
      } catch (const DecodeError&) {
      } catch (const std::exception& e) {
        FAIL() << "decode_snapshot threw non-DecodeError: " << e.what();
      }
    }
  }
  const Bytes image = storage::encode_snapshot(rng.bytes(64));
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = image;
    mutated[rng.uniform(mutated.size())] = static_cast<std::uint8_t>(rng.next_u64());
    expect_graceful_storage("decode_snapshot",
                            [&] { (void)storage::decode_snapshot(mutated); });
  }
}

TEST_P(StorageFuzz, ChainFileLoadHandlesMutations) {
  Rng rng(GetParam() ^ 0x3a4ULL);
  crypto::SigningKey key(crypto::random_seed(rng));
  ledger::ChainStore chain;
  for (BlockSerial s = 1; s <= 2; ++s) {
    ledger::TxRecord rec;
    rec.tx = ledger::make_transaction(ProviderId(1), s, s, rng.bytes(8), key);
    chain.append(ledger::make_block(s, s, chain.head_hash(), GovernorId(0), {rec}, key));
  }
  const auto path = std::filesystem::temp_directory_path() /
                    ("repchain_fuzz_chain_" + std::to_string(GetParam()) + ".bin");
  chain.save(path);
  Bytes bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto rewrite = [&](const Bytes& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  };
  // Truncations (sampled), single-byte corruption, and extensions.
  for (std::size_t len = 0; len < bytes.size(); len += 1 + rng.uniform(9)) {
    rewrite(Bytes(bytes.begin(), bytes.begin() + static_cast<long>(len)));
    expect_graceful_storage("ChainStore::load",
                            [&] { (void)ledger::ChainStore::load(path); });
  }
  for (int i = 0; i < 150; ++i) {
    Bytes mutated = bytes;
    mutated[rng.uniform(mutated.size())] = static_cast<std::uint8_t>(rng.next_u64());
    rewrite(mutated);
    expect_graceful_storage("ChainStore::load",
                            [&] { (void)ledger::ChainStore::load(path); });
  }
  for (int i = 0; i < 20; ++i) {
    Bytes extended = bytes;
    append(extended, rng.bytes(1 + rng.uniform(16)));
    rewrite(extended);
    expect_graceful_storage("ChainStore::load",
                            [&] { (void)ledger::ChainStore::load(path); });
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace repchain
