#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "ledger/block.hpp"

namespace repchain::ledger {

/// Append-only hash-chained block store enforcing, at append time, the
/// safety properties of §3.1:
///  - Agreement is per-store trivially (one copy per governor); cross-store
///    agreement is checked by `same_prefix`;
///  - Chain Integrity: prev_hash of each appended block must equal H(head);
///  - No Skipping: serials are 1, 2, 3, ... with no gaps.
class ChainStore {
 public:
  /// Append a block. Throws ProtocolError on serial gap or hash mismatch.
  void append(Block block);

  /// retrieve(s) of §3.1. Nullopt if the serial is beyond the head.
  [[nodiscard]] std::optional<Block> retrieve(BlockSerial serial) const;

  [[nodiscard]] std::size_t height() const { return blocks_.size(); }
  [[nodiscard]] bool empty() const { return blocks_.empty(); }

  /// Hash of the latest block; the genesis predecessor hash (all zero) when
  /// empty. Kept from the append, not recomputed.
  [[nodiscard]] crypto::Hash256 head_hash() const { return head_hash_; }
  [[nodiscard]] const Block& head() const;
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Full audit of the stored chain: serials contiguous from 1, every link's
  /// prev_hash correct, every tx_root consistent with its TXList.
  [[nodiscard]] bool audit() const;

  /// Agreement check between two replicas: identical blocks at every common
  /// serial.
  [[nodiscard]] static bool same_prefix(const ChainStore& a, const ChainStore& b);

  /// Count of transactions across all blocks with the given status.
  [[nodiscard]] std::size_t count_status(TxStatus status) const;

  /// Persist the chain to a file (length-prefixed block encodings behind a
  /// magic header). Throws ProtocolError on I/O failure.
  void save(const std::filesystem::path& path) const;

  /// Load a chain from a file. Every block is re-verified through append()
  /// on the way in, so a tampered file fails with ProtocolError/DecodeError
  /// rather than producing a corrupt store.
  [[nodiscard]] static ChainStore load(const std::filesystem::path& path);

 private:
  std::vector<Block> blocks_;
  crypto::Hash256 head_hash_{};  // blocks_.back().hash(); only append changes blocks_
};

}  // namespace repchain::ledger
