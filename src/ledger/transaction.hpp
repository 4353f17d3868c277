#pragma once

#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha256.hpp"

namespace repchain::ledger {

/// Identifier of a transaction: SHA-256 over the provider-signed fields.
/// Two uploads of the same provider transaction (possibly with different
/// collector labels) share one TxId, which is what lets a governor aggregate
/// reports per transaction in the screening step.
using TxId = crypto::Hash256;

/// A provider transaction: payload signed together with the timestamp so no
/// collector can forge or replay one (§3.1: "they sign on transactions
/// together with the timestamp").
struct Transaction {
  ProviderId provider;
  std::uint64_t seq = 0;  // provider-local sequence number
  SimTime timestamp = 0;
  Bytes payload;
  crypto::Signature provider_sig;

  /// Provider's signing preimage (all fields except the signature).
  [[nodiscard]] Bytes signed_preimage() const;
  [[nodiscard]] TxId id() const;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Transaction decode(BytesView data);

  /// Field-wise, which is byte-wise on the encoding.
  bool operator==(const Transaction&) const = default;
};

/// Create and sign a transaction with the provider's key.
[[nodiscard]] Transaction make_transaction(ProviderId provider, std::uint64_t seq,
                                           SimTime timestamp, Bytes payload,
                                           const crypto::SigningKey& key);

/// Collector's verdict on a transaction (+1 valid / -1 invalid, §3.3).
enum class Label : std::int8_t {
  kValid = +1,
  kInvalid = -1,
};

[[nodiscard]] inline Label opposite(Label l) {
  return l == Label::kValid ? Label::kInvalid : Label::kValid;
}

/// A transaction with a collector's label and signature — the unit uploaded
/// to governors in Algorithm 1.
struct LabeledTransaction {
  Transaction tx;
  Label label = Label::kValid;
  CollectorId collector;
  crypto::Signature collector_sig;

  /// Collector's signing preimage: the signed transaction plus the label.
  [[nodiscard]] Bytes signed_preimage() const;

  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static LabeledTransaction decode(BytesView data);
};

/// Label and sign an upload with the collector's key.
[[nodiscard]] LabeledTransaction make_labeled(const Transaction& tx, Label label,
                                              CollectorId collector,
                                              const crypto::SigningKey& key);

/// Hash functor for using TxId as an unordered_map key.
struct TxIdHash {
  std::size_t operator()(const TxId& id) const noexcept {
    std::size_t out;
    std::memcpy(&out, id.data(), sizeof(out));
    return out;
  }
};

}  // namespace repchain::ledger
