#include "ledger/chain.hpp"

#include <fstream>

#include "common/errors.hpp"
#include "common/serial.hpp"

namespace repchain::ledger {

void ChainStore::append(Block block) {
  const BlockSerial expected = blocks_.size() + 1;
  if (block.serial != expected) {
    throw ProtocolError("no-skipping violation: expected serial " +
                        std::to_string(expected) + ", got " +
                        std::to_string(block.serial));
  }
  if (!ct_equal(view(block.prev_hash), view(head_hash()))) {
    throw ProtocolError("chain-integrity violation: prev_hash mismatch at serial " +
                        std::to_string(block.serial));
  }
  if (!ct_equal(view(block.tx_root), view(block.compute_tx_root()))) {
    throw ProtocolError("tx_root does not commit to TXList at serial " +
                        std::to_string(block.serial));
  }
  const crypto::Hash256 hash = block.hash();
  blocks_.push_back(std::move(block));
  head_hash_ = hash;
}

std::optional<Block> ChainStore::retrieve(BlockSerial serial) const {
  if (serial == 0 || serial > blocks_.size()) return std::nullopt;
  return blocks_[serial - 1];
}

const Block& ChainStore::head() const {
  if (blocks_.empty()) throw ProtocolError("head() on empty chain");
  return blocks_.back();
}

bool ChainStore::audit() const {
  crypto::Hash256 prev{};
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    if (b.serial != i + 1) return false;
    if (!ct_equal(view(b.prev_hash), view(prev))) return false;
    if (!ct_equal(view(b.tx_root), view(b.compute_tx_root()))) return false;
    prev = b.hash();
  }
  return true;
}

bool ChainStore::same_prefix(const ChainStore& a, const ChainStore& b) {
  const std::size_t common = std::min(a.height(), b.height());
  for (std::size_t i = 0; i < common; ++i) {
    if (a.blocks_[i].encode() != b.blocks_[i].encode()) return false;
  }
  return true;
}

namespace {
constexpr char kMagic[] = "repchain-chain-v1";
}  // namespace

void ChainStore::save(const std::filesystem::path& path) const {
  BinaryWriter w;
  w.str(kMagic);
  w.u64(blocks_.size());
  for (const Block& b : blocks_) w.bytes(b.encode());
  const Bytes data = std::move(w).take();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ProtocolError("cannot open chain file for writing: " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw ProtocolError("failed writing chain file: " + path.string());
}

ChainStore ChainStore::load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ProtocolError("cannot open chain file for reading: " + path.string());
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  BinaryReader r(data);
  if (r.str() != kMagic) throw DecodeError("bad chain file magic");
  const std::uint64_t count = r.u64();
  r.expect_count(count, 4);

  ChainStore store;
  for (std::uint64_t i = 0; i < count; ++i) {
    // append() re-validates serials, hash links and tx roots.
    store.append(Block::decode(r.bytes()));
  }
  r.expect_done();
  return store;
}

std::size_t ChainStore::count_status(TxStatus status) const {
  std::size_t n = 0;
  for (const auto& b : blocks_) {
    for (const auto& rec : b.txs) {
      if (rec.status == status) ++n;
    }
  }
  return n;
}

}  // namespace repchain::ledger
