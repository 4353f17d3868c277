#pragma once

// Thin facade over the simulation harness. The run specification lives in
// sim/harness/spec.hpp; the machinery is decomposed under sim/harness/ —
// Wiring (node construction + transport/storage plumbing), FaultPlan
// (fault/adversary/crash lowering), Workload (provider traffic + audits),
// Observation (passive measurement + summary). Scenario owns the EventLoop
// and orchestrates the round loop; everything else delegates.

#include <deque>
#include <memory>

#include "common/rng.hpp"
#include "runtime/event_loop.hpp"
#include "sim/harness/observation.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/wiring.hpp"
#include "sim/round_observer.hpp"

namespace repchain::sim {

/// One deterministic whole-protocol run. Rounds are self-driving: run_round
/// arms every node's phase timers (keyed to the synchrony bound Delta via
/// RoundTiming), injects the collecting-phase workload, and then just runs
/// the clock to the round boundary while a passive RoundObserver assembles
/// the RoundRecord from emitted trace events.
class Scenario {
 public:
  /// With a non-null `remote` (which must outlive the Scenario) the
  /// governors live behind that link — the lockstep cluster run — and the
  /// governor accessors below see only empty slots.
  explicit Scenario(ScenarioConfig config, GovernorLink* remote = nullptr);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Run all configured rounds.
  void run();
  /// Run a single round (callable repeatedly; advances the round counter).
  void run_round();

  /// Kill governor `i` right now: revoke its pending timer callbacks and
  /// destroy the object (all in-memory state is gone; its NodeStateStore,
  /// held by the harness, survives). Messages to the dead node are dropped.
  void crash_governor(std::size_t i) { wiring_->crash_governor(i); }
  /// Rebuild governor `i` from its store and start catching up with peers.
  void restart_governor(std::size_t i) { wiring_->restart_governor(i); }

  [[nodiscard]] ScenarioSummary summary() const;

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const protocol::RoundTiming& timing() const { return wiring_->timing_; }
  [[nodiscard]] std::deque<protocol::Provider>& providers() {
    return wiring_->providers_;
  }
  [[nodiscard]] std::deque<protocol::Collector>& collectors() {
    return wiring_->collectors_;
  }
  /// Governors are held behind pointers so a crash can destroy one while the
  /// deque slot (and the network handler indexing it) stays put; a null slot
  /// is a currently-dead node.
  [[nodiscard]] std::deque<std::unique_ptr<protocol::Governor>>& governors() {
    return wiring_->governors_;
  }
  /// Governor `i`, which must be alive.
  [[nodiscard]] protocol::Governor& governor(std::size_t i) {
    return *wiring_->governors_[i];
  }
  [[nodiscard]] const protocol::Governor& governor(std::size_t i) const {
    return *wiring_->governors_[i];
  }
  /// The store backing governor `i` (null unless durable/crash-scheduled).
  [[nodiscard]] storage::NodeStateStore* governor_store(std::size_t i) {
    return wiring_->governor_stores_.empty() ? nullptr
                                             : wiring_->governor_stores_[i].get();
  }
  [[nodiscard]] const protocol::Directory& directory() const {
    return wiring_->directory_;
  }
  /// The committee partition (identity routing on classic runs).
  [[nodiscard]] const protocol::ShardRouter& shard_router() const {
    return wiring_->router_;
  }
  /// The cross-shard anchor log (one head commitment per committee every
  /// anchor_interval rounds).
  [[nodiscard]] const ledger::BeaconLog& beacon() const {
    return observation_.beacon();
  }
  [[nodiscard]] ledger::ValidationOracle& oracle() { return *wiring_->oracle_; }
  [[nodiscard]] net::SimNetwork& network() { return *wiring_->net_; }
  /// Fault-injection stats (null when no faults are scheduled).
  [[nodiscard]] const runtime::FaultStats* fault_stats() const {
    return wiring_->faulty_ ? &wiring_->faulty_->stats() : nullptr;
  }
  [[nodiscard]] const RoundObserver& observer() const {
    return observation_.observer();
  }
  [[nodiscard]] runtime::EventLoop& queue() { return queue_; }
  [[nodiscard]] identity::IdentityManager& identity_manager() {
    return *wiring_->im_;
  }
  [[nodiscard]] Round current_round() const { return round_; }

  /// Cumulative reward paid to each collector (leader-share based, §3.4.3).
  [[nodiscard]] const std::vector<double>& collector_rewards() const {
    return observation_.rewards();
  }
  /// Rounds each governor led.
  [[nodiscard]] const std::vector<std::uint64_t>& leader_counts() const {
    return observation_.leader_counts();
  }
  /// Per-round time series (one entry per completed round).
  [[nodiscard]] const std::vector<RoundRecord>& history() const {
    return observation_.history();
  }

 private:
  ScenarioConfig config_;
  Rng rng_;
  runtime::EventLoop queue_;
  Observation observation_;  // declared before wiring_: governor contexts
                             // capture a pointer to its RoundObserver
  std::unique_ptr<Wiring> wiring_;

  Round round_ = 0;
};

}  // namespace repchain::sim
