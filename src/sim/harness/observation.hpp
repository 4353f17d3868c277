#pragma once

// Harness layer: passive measurement. Observation owns the RoundObserver
// (fed by node trace events), the reward/leadership tallies, and the
// per-round time series; it reduces governor states at round open and close,
// assembles the RoundRecord, and renders the end-of-run ScenarioSummary.
// It never injects events — everything here is read-only with respect to
// the protocol run (sample_rewards mutates only its own tallies).
//
// Observation never holds a governor: the round loop reads each one's
// GovernorState through its GovernorLink — in process or over RPC — so a
// cluster run and a simulated run accumulate bit-identical tallies.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "ledger/anchor.hpp"
#include "ledger/chain.hpp"
#include "sim/harness/spec.hpp"
#include "sim/round_observer.hpp"

namespace repchain::sim {

struct Wiring;

/// Everything the round loop reads of one live governor: the counters the
/// round edges probe, the leader's head block and revenue split for the
/// reward timer, the head the anchor step commits, the audit's draws, and
/// the losses the summary averages. The free-running cluster's observer
/// polls the same read for heads and watchdog trips.
struct GovernorState {
  std::optional<GovernorId> leader;  // this replica's view of the round leader
  double expected_loss = 0.0;
  double realized_loss = 0.0;
  std::uint64_t mistakes = 0;
  std::uint64_t argues_accepted = 0;
  std::uint64_t watchdog_trips = 0;  // kRoundStalled traces emitted
  /// Validations by this governor's own oracle replica; 0 for a governor
  /// sharing the harness oracle, which is counted once on its own.
  std::uint64_t validations = 0;
  std::uint64_t head_serial = 0;     // 0 = empty chain
  crypto::Hash256 head_hash{};       // zero hash when the chain is empty
  std::uint64_t head_valid_txs = 0;  // head-block txs not kUncheckedInvalid
  std::vector<std::pair<CollectorId, double>> shares;  // revenue_shares()
  std::vector<ledger::TxId> unrevealed;  // unrevealed_unchecked()
};

/// One entry per governor, in governor order; nullopt = currently dead.
using GovernorStates = std::vector<std::optional<GovernorState>>;

/// Read `governor`'s state; `validations` is its own oracle replica's count.
[[nodiscard]] GovernorState read_governor_state(const protocol::Governor& governor,
                                                std::uint64_t validations);

class Observation {
 public:
  void init(std::size_t collectors, std::size_t governors) {
    rewards_.assign(collectors, 0.0);
    leader_counts_.assign(governors, 0);
  }

  /// Record the before-counters of a new round.
  void begin_round(Round round, const Wiring& wiring, const GovernorStates& states);
  /// Assemble and append the round's RoundRecord from the observer and the
  /// after-counters.
  void end_round(const Wiring& wiring, const GovernorStates& states);

  /// Timer target: leadership tally + collector reward split (leader-share
  /// based, §3.4.3). The first live replica names the leader; the leader's
  /// own state supplies its head block and revenue split.
  void sample_rewards(const ScenarioConfig& config, const GovernorStates& states);

  /// Cross-shard anchoring: commit every committee's first live replica's
  /// chain head into the beacon at `round`. An anchor that would regress its
  /// shard's previous one (reference replica changed to a lagging restartee)
  /// is skipped rather than recorded — the beacon stays monotone.
  void record_anchors(const Wiring& wiring, const GovernorStates& states,
                      Round round);
  [[nodiscard]] const ledger::BeaconLog& beacon() const { return beacon_; }

  /// Aggregate a finished (or in-flight) run into a ScenarioSummary from
  /// every governor's chain (null = dead) and state, in governor order. The
  /// wiring supplies the providers, collectors, network, harness oracle and
  /// committee partition; its governor slots are not read.
  [[nodiscard]] ScenarioSummary summarize(
      const Wiring& wiring, const std::vector<const ledger::ChainStore*>& chains,
      const GovernorStates& states) const;

  [[nodiscard]] RoundObserver& observer() { return observer_; }
  [[nodiscard]] const RoundObserver& observer() const { return observer_; }
  [[nodiscard]] const std::vector<double>& rewards() const { return rewards_; }
  [[nodiscard]] const std::vector<std::uint64_t>& leader_counts() const {
    return leader_counts_;
  }
  [[nodiscard]] const std::vector<RoundRecord>& history() const { return history_; }

 private:
  /// The counters a round's record is the difference of.
  struct Counters {
    std::uint64_t validations = 0;   // harness oracle + every node replica
    std::uint64_t messages = 0;      // network messages_sent
    double ref_expected_loss = 0.0;  // first live governor's L
    std::uint64_t argues = 0;        // argues_accepted over live governors
  };
  [[nodiscard]] static Counters count(const Wiring& wiring,
                                      const GovernorStates& states);

  RoundObserver observer_;
  std::vector<double> rewards_;
  std::vector<std::uint64_t> leader_counts_;
  std::vector<RoundRecord> history_;
  ledger::BeaconLog beacon_;

  // Captured by begin_round, consumed by end_round.
  RoundRecord pending_;
  Counters before_;
};

}  // namespace repchain::sim
