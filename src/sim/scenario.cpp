#include "sim/scenario.hpp"

#include "sim/harness/fault_plan.hpp"
#include "sim/harness/spec_codec.hpp"
#include "sim/harness/workload.hpp"

namespace repchain::sim {

Scenario::Scenario(ScenarioConfig config, GovernorLink* remote)
    : config_(std::move(config)), rng_(config_.seed) {
  // Normalize the spec before any machinery sees it: validation plus the
  // implied-flag rules that make attack/fault configs self-consistent.
  normalize_config(config_);

  wiring_ = std::make_unique<Wiring>(config_, rng_, queue_, observation_.observer(),
                                     remote);
  observation_.observer().watch(wiring_->directory_.node_of(GovernorId(0)));
  FaultPlan::install_adversary(config_, *wiring_, queue_);

  observation_.init(config_.topology.collectors, config_.topology.governors);
  observation_.set_bounded_history(config_.bounded_history);
}

Scenario::~Scenario() = default;

void Scenario::run_round() {
  ++round_;
  const SimTime t0 = queue_.now();
  // Scheduled restarts happen at the round boundary, before timers are
  // armed, so the recovered governor takes part in this round's election.
  FaultPlan::apply_restarts(config_, *wiring_, round_);
  observation_.begin_round(round_, *wiring_, wiring_->governor_states());

  // Arm every node's phase timers (election -> screening settle -> propose ->
  // stake consensus -> audit). Node order fixes the FIFO tie-break for timers
  // sharing a deadline.
  const protocol::RoundTiming& timing = wiring_->timing_;
  for (std::size_t i = 0; i < wiring_->governors_.size(); ++i) {
    wiring_->link_->arm_round(i, round_, t0);
  }
  for (auto& p : wiring_->providers_) p.arm_round(t0, timing);
  queue_.schedule_at(t0 + timing.rewards_offset, [this] {
    observation_.sample_rewards(config_, wiring_->governor_states());
  });
  if (config_.audit_probability > 0.0) {
    queue_.schedule_at(t0 + timing.audit_offset,
                       [this] { run_audit(*wiring_, round_); });
  }
  // Scheduled crashes fire mid-round at their configured offset.
  FaultPlan::schedule_crashes(config_, *wiring_, queue_, round_, t0);

  // Collecting phase: inject the workload once the election has settled.
  queue_.run_until(t0 + timing.workload_offset);
  inject_workload(*wiring_, queue_, round_);

  // The armed timers drive every remaining phase; just run the clock to the
  // round boundary.
  queue_.run_until(t0 + timing.round_span);

  const GovernorStates states = wiring_->governor_states();
  observation_.end_round(*wiring_, states);

  // Cross-shard anchoring: commit every committee's chain head into the
  // beacon at the interval boundary (pure observation — no messages, no RNG,
  // so classic fixed-seed runs are untouched).
  if (round_ % config_.anchor_interval == 0) {
    observation_.record_anchors(*wiring_, states, round_);
  }
}

ScenarioSummary Scenario::summary() const {
  std::vector<const ledger::ChainStore*> chains;
  chains.reserve(wiring_->governors_.size());
  for (std::size_t i = 0; i < wiring_->governors_.size(); ++i) {
    chains.push_back(wiring_->link_->snapshot(i));
  }
  return observation_.summarize(*wiring_, chains, wiring_->governor_states());
}

void Scenario::run() {
  for (std::size_t i = 0; i < config_.rounds; ++i) run_round();
}

}  // namespace repchain::sim
