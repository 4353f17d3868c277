#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "ledger/transaction.hpp"
#include "ledger/validation_oracle.hpp"
#include "reputation/reputation_table.hpp"

namespace repchain::protocol {

/// Disposition of one screened transaction.
enum class ScreeningKind : std::uint8_t {
  kAppendedValid = 1,      // validated, valid -> goes into TXList
  kDiscardedInvalid = 2,   // validated, invalid -> dropped
  kRecordedUnchecked = 3,  // -1 survived the coin -> (tx, invalid, unchecked)
};

struct ScreeningOutcome {
  ScreeningKind kind = ScreeningKind::kAppendedValid;
  reputation::Selection selection;  // the drawn source collector
  bool checked = false;             // validate(tx) was invoked
};

/// Per-governor counters for the efficiency/correctness trade (E2/E7).
struct ScreeningStats {
  std::uint64_t screened = 0;
  std::uint64_t checked = 0;
  std::uint64_t unchecked = 0;
  std::uint64_t appended_valid = 0;
  std::uint64_t discarded_invalid = 0;
};

/// The decision core of Algorithm 2, lines 11-32: given a transaction's
/// aggregated reports, draw the source collector proportionally to
/// reputation, validate according to the label and the 1 - f*Pr coin, and
/// apply the Algorithm 3 case-2 update when the transaction was validated.
///
/// Network plumbing, timers and TXList assembly live in Governor; this class
/// is pure protocol logic so the screening distribution can be unit-tested
/// and reused by the baseline governors.
class ScreeningEngine {
 public:
  ScreeningEngine(reputation::ReputationTable& table, ledger::ValidationOracle& oracle,
                  Rng& rng);

  /// Screen one transaction, whose id the caller has already hashed.
  /// `reports` must be non-empty.
  ScreeningOutcome screen(const ledger::Transaction& tx, const ledger::TxId& id,
                          std::span<const reputation::Report> reports);

  [[nodiscard]] const ScreeningStats& stats() const { return stats_; }

 private:
  reputation::ReputationTable& table_;
  ledger::ValidationOracle& oracle_;
  Rng& rng_;
  ScreeningStats stats_;
};

}  // namespace repchain::protocol
