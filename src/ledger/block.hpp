#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "ledger/transaction.hpp"

namespace repchain::ledger {

/// How a transaction ended up in a block, following Algorithm 2:
///  - kCheckedValid: the governor ran validate(tx) and it was valid;
///  - kUncheckedInvalid: a -1 report survived the 1 - f*Pr coin, so the tx
///    is recorded invalid-and-unchecked (may later be argued);
///  - kArguedValid: a provider argued and re-validation proved it valid.
/// Checked-invalid transactions are discarded and never appear in a block.
enum class TxStatus : std::uint8_t {
  kCheckedValid = 1,
  kUncheckedInvalid = 2,
  kArguedValid = 3,
};

[[nodiscard]] const char* tx_status_name(TxStatus s);

/// One TXList entry: the signed transaction plus its recorded disposition.
struct TxRecord {
  Transaction tx;
  Label label = Label::kValid;  // label of the screening-chosen collector
  TxStatus status = TxStatus::kCheckedValid;

  [[nodiscard]] bool unchecked() const { return status == TxStatus::kUncheckedInvalid; }

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static TxRecord decode(BytesView data);

  bool operator==(const TxRecord&) const = default;
};

/// A block B = (s, TXList, h) per §3.1, extended with the fields any real
/// deployment needs: round number, a Merkle commitment to TXList, the
/// proposing leader and its signature.
struct Block {
  BlockSerial serial = 0;
  Round round = 0;
  crypto::Hash256 prev_hash{};  // H(previous block); zero for the genesis block
  crypto::Hash256 tx_root{};    // Merkle root over TXList entries
  GovernorId leader;
  std::vector<TxRecord> txs;
  crypto::Signature leader_sig;

  /// Leader's signing preimage (all fields except the signature).
  [[nodiscard]] Bytes signed_preimage() const;

  /// H(B): hash of the full encoding, as referenced by the next block.
  [[nodiscard]] crypto::Hash256 hash() const;

  /// Recompute the Merkle root from txs (must equal tx_root in a
  /// well-formed block).
  [[nodiscard]] crypto::Hash256 compute_tx_root() const;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Block decode(BytesView data);

  /// Merkle inclusion proof for the i-th TXList entry against tx_root —
  /// lets a light client verify a transaction's recorded disposition from
  /// the block header alone. Throws ConfigError if out of range.
  [[nodiscard]] crypto::MerkleProof prove_tx(std::size_t index) const;

  /// Verify that `record` is committed at some position under `tx_root`.
  [[nodiscard]] static bool verify_tx_inclusion(const crypto::Hash256& tx_root,
                                                const TxRecord& record,
                                                const crypto::MerkleProof& proof);

  /// Field-wise, which is byte-wise on the encoding (and so on hash()).
  bool operator==(const Block&) const = default;
};

/// Assemble and sign a block.
[[nodiscard]] Block make_block(BlockSerial serial, Round round,
                               const crypto::Hash256& prev_hash, GovernorId leader,
                               std::vector<TxRecord> txs, const crypto::SigningKey& key);

}  // namespace repchain::ledger
