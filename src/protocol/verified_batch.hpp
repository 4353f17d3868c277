#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/batch_verify.hpp"

namespace repchain::protocol {

/// A batch of signature checks accumulated by an ingestion front-end and
/// settled in one crypto::verify_batch_detailed call.
///
/// Two front-ends use it. ScreeningIntake's upload flush settles a
/// same-instant wave of uploads; EquivocationDetector settles the
/// conflicting labels of one gossip message. (ElectionState checks an
/// announcement's VRF tickets with crypto::vrf_verify_all, which is
/// all-or-nothing; StakeConsensus verifies its quorum signatures one at a
/// time.) A front-end runs the non-cryptographic gates per item first —
/// enrollment, role, revocation, link structure — via
/// IdentityManager::verification_key. Items that fail a gate, or that hit a
/// verified-signature memo, enter the batch pre-decided; the rest carry a
/// (key, message, sig) triple and are settled together: each triple checks
/// verify's own equation without decoding its R, and the set's points share
/// one field inversion (see crypto::verify_batch_detailed). The per-item
/// verdicts are therefore exactly what per-item authenticate/authorize calls
/// would have produced, at a fraction of the cost. Settling draws no
/// randomness.
class VerifiedBatch {
 public:
  using Index = std::size_t;

  /// Queue one signature for bulk verification. A triple equal to a queued
  /// one (key bytes, message and signature) shares its slot, and so its
  /// verdict, instead of entering the equation twice.
  Index add(const crypto::VerifyingKey& key, Bytes message, const crypto::Signature& sig) {
    const auto same = std::find_if(items_.begin(), items_.end(), [&](const crypto::BatchItem& it) {
      return it.sig == sig && it.pub.public_key() == key.public_key() && it.message == message;
    });
    if (same == items_.end()) {
      items_.push_back(crypto::BatchItem{key, std::move(message), sig});
      slots_.push_back(items_.size() - 1);
    } else {
      slots_.push_back(static_cast<std::size_t>(same - items_.begin()));
    }
    verdicts_.push_back(kPending);
    return verdicts_.size() - 1;
  }

  /// Record an item whose outcome is already known (failed precheck gate or
  /// verified-signature memo hit); it consumes no crypto work.
  Index add_decided(bool ok) {
    slots_.push_back(kNoSlot);
    verdicts_.push_back(ok ? kTrue : kFalse);
    return verdicts_.size() - 1;
  }

  /// Run the queued checks with crypto::verify_batch_detailed. Idempotent
  /// once settled.
  void settle();

  /// Per-item verdict; only valid after settle().
  [[nodiscard]] bool ok(Index i) const { return verdicts_[i] == kTrue; }

  [[nodiscard]] std::size_t size() const { return verdicts_.size(); }
  /// How many distinct items actually went through cryptographic
  /// verification.
  [[nodiscard]] std::size_t crypto_checks() const { return items_.size(); }
  [[nodiscard]] bool settled() const { return settled_; }

  /// Reset for reuse; keeps the vectors' capacity (intake flushes reuse one
  /// batch object round after round).
  void clear() {
    items_.clear();
    slots_.clear();
    verdicts_.clear();
    settled_ = false;
  }

 private:
  static constexpr std::int8_t kPending = -1;
  static constexpr std::int8_t kFalse = 0;
  static constexpr std::int8_t kTrue = 1;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::vector<crypto::BatchItem> items_;   // pending crypto checks, in order
  std::vector<std::size_t> slots_;         // item index -> items_ slot (or kNoSlot)
  std::vector<std::int8_t> verdicts_;
  bool settled_ = false;
};

}  // namespace repchain::protocol
