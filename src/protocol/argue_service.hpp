#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ledger/validation_oracle.hpp"
#include "protocol/argue_buffer.hpp"
#include "protocol/governor_types.hpp"
#include "protocol/messages.hpp"
#include "reputation/reputation_table.hpp"

namespace repchain::protocol {

/// The governor's argue/reveal bookkeeping (Algorithm 2 deliver_argue plus
/// the Algorithm 3 case-3 update): tracks unchecked transactions with their
/// screening-time report snapshots, enforces the argue-latency bound U, and
/// applies reputation updates when a transaction's truth surfaces — through
/// an argue or through out-of-band audit evidence.
///
/// Message authentication stays in the Governor facade; this class is the
/// post-auth protocol logic, unit-testable without networking.
class ArgueService {
 public:
  ArgueService(reputation::ReputationTable& table, ledger::ValidationOracle& oracle,
               GovernorMetrics& metrics, std::size_t argue_latency_u)
      : table_(table), oracle_(oracle), metrics_(metrics),
        argue_buffer_(argue_latency_u) {}

  /// Screening recorded (tx, invalid, unchecked): snapshot the reports and
  /// loss metrics and open the argue window. `id` is tx.id(), which the
  /// screening caller already holds.
  void record_unchecked(const ledger::Transaction& tx, const ledger::TxId& id,
                        std::vector<reputation::Report> reports);

  /// True iff `id` is known (pending or already revealed) — uploads of such
  /// transactions are replays.
  [[nodiscard]] bool known(const ledger::TxId& id) const {
    return unchecked_.contains(id);
  }

  /// Handle an authenticated argue. Returns the argued-valid record to
  /// append to the pending TXList when re-validation proves the provider
  /// right; nullopt otherwise.
  [[nodiscard]] std::optional<ledger::TxRecord> handle_argue(const ArgueMsg& argue);

  /// Audit hook: reveal the true state of an unchecked transaction through
  /// "other evidence" (not an argue; no block append). Returns false if
  /// unknown or already revealed.
  bool reveal(const ledger::TxId& id);

  /// Ids of unchecked transactions still unrevealed (oldest first).
  [[nodiscard]] std::vector<ledger::TxId> unrevealed() const;

  [[nodiscard]] const std::unordered_map<ledger::TxId, UncheckedEntry,
                                         ledger::TxIdHash>&
  entries() const {
    return unchecked_;
  }
  [[nodiscard]] const ArgueBuffer& buffer() const { return argue_buffer_; }

  /// Entries in screening order (oldest first), for checkpoint encoding.
  [[nodiscard]] std::vector<const UncheckedEntry*> entries_in_order() const;

  /// Restore path: drop all unchecked/argue state, including the argue
  /// buffer (its burial positions are meaningless without the entries).
  void reset_transient() {
    unchecked_.clear();
    unchecked_order_.clear();
    argue_buffer_ = ArgueBuffer(argue_buffer_.u());
  }

  /// Restore path: reinstall checkpointed entries in screening order,
  /// re-opening the argue window for every unrevealed one. Loss/mistake
  /// metrics are NOT re-counted — they were observed by the pre-crash
  /// incarnation; a restored governor's metrics start fresh.
  void restore_entries(std::vector<UncheckedEntry> entries);

 private:
  void apply_reveal(UncheckedEntry& entry, bool truth);

  reputation::ReputationTable& table_;
  ledger::ValidationOracle& oracle_;
  GovernorMetrics& metrics_;
  ArgueBuffer argue_buffer_;
  std::unordered_map<ledger::TxId, UncheckedEntry, ledger::TxIdHash> unchecked_;
  std::deque<ledger::TxId> unchecked_order_;
};

}  // namespace repchain::protocol
