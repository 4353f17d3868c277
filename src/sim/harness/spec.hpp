#pragma once

// Declarative run specification for the simulation harness: topology,
// protocol parameters, workload mix, and the fault/adversary plan, plus the
// record types a finished run reports. Pure data — the lowering onto live
// objects happens in the harness layer (Wiring, FaultPlan, Workload,
// Observation) behind the Scenario facade.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <vector>

#include "adversary/spec.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "net/network.hpp"
#include "protocol/collector.hpp"
#include "protocol/governor.hpp"
#include "sim/topology.hpp"

namespace repchain::sim {

/// One scheduled crash/restart fault: the governor loses all in-memory state
/// at `crash_round` + `crash_offset` (its pending timers are revoked, its
/// object destroyed) and is rebuilt at the start of `restart_round` from its
/// NodeStateStore — recover_from_store + sync_chain — before that round's
/// timers are armed. Rounds are 1-based, matching Scenario::current_round().
struct CrashPlan {
  std::size_t governor = 0;
  std::size_t crash_round = 1;
  SimDuration crash_offset = 0;  // within the round, relative to its t0
  std::size_t restart_round = 2;
};

// --- Round-based network fault specs -----------------------------------------
//
// Declarative fault windows expressed in 1-based round numbers; the FaultPlan
// lowers them onto the FaultSchedule's absolute time windows using the
// derived RoundTiming (round r spans [(r-1), r) * round_span). Every window
// is half-open: [from_round, until_round).

/// Cut the island (governor/collector/provider indices) off from everyone
/// else; traffic within the island and among outsiders still flows. The
/// partition heals at until_round.
struct PartitionSpec {
  std::size_t from_round = 1;
  std::size_t until_round = 2;
  std::vector<std::size_t> governors;
  std::vector<std::size_t> collectors;
  std::vector<std::size_t> providers;
};

/// Burst loss on every link.
struct LossSpec {
  std::size_t from_round = 1;
  std::size_t until_round = 2;
  double probability = 0.0;
};

/// Global delay spike (extra + uniform jitter on every drawn delay). May
/// deliberately exceed the synchrony bound Delta.
struct DelaySpikeSpec {
  std::size_t from_round = 1;
  std::size_t until_round = 2;
  SimDuration extra = 0;
  SimDuration jitter = 0;
};

/// Message duplication.
struct DuplicationSpec {
  std::size_t from_round = 1;
  std::size_t until_round = 2;
  double probability = 0.0;
};

/// Bounded reordering of unicasts.
struct ReorderSpec {
  std::size_t from_round = 1;
  std::size_t until_round = 2;
  double probability = 0.0;
  SimDuration max_extra = 5 * kMillisecond;
};

/// One slow governor-to-governor link (SimNetwork::set_link_delay), applied
/// at from_round and removed at until_round.
struct LinkDelaySpec {
  std::size_t from_round = 1;
  std::size_t until_round = 2;
  std::size_t from_governor = 0;
  std::size_t to_governor = 1;
  SimDuration extra = 0;
};

/// The full declarative fault plan of a run.
struct FaultScheduleSpec {
  std::vector<PartitionSpec> partitions;
  std::vector<LossSpec> losses;
  std::vector<DelaySpikeSpec> delay_spikes;
  std::vector<DuplicationSpec> duplications;
  std::vector<ReorderSpec> reorders;
  std::vector<LinkDelaySpec> link_delays;

  [[nodiscard]] bool empty() const {
    return partitions.empty() && losses.empty() && delay_spikes.empty() &&
           duplications.empty() && reorders.empty() && link_delays.empty();
  }
};

/// Full scenario configuration: topology, protocol parameters, workload and
/// fault mix. One Scenario = one deterministic whole-protocol run.
struct ScenarioConfig {
  TopologyConfig topology;
  protocol::GovernorConfig governor;
  net::LatencyModel latency;

  std::size_t rounds = 10;
  std::size_t txs_per_provider_per_round = 2;
  /// Ground-truth probability that a generated transaction is valid.
  double p_valid = 0.8;
  /// Providers argue over wrongly-buried transactions (Validity liveness).
  bool providers_active = true;
  /// Probability that the truth of a still-unrevealed unchecked transaction
  /// surfaces through "other evidence" at the end of each round (the paper's
  /// "real states ... are revealed sometime after"; argue only covers valid
  /// transactions of active providers).
  double audit_probability = 1.0;
  /// Collector behaviours, assigned round-robin over the n collectors.
  /// Empty => all honest.
  std::vector<protocol::CollectorBehavior> behaviors;
  /// Genesis stake per governor; empty => 1 unit each.
  std::vector<std::uint64_t> governor_stakes;
  /// Reward paid to collectors per valid transaction in an accepted block.
  double reward_per_valid_tx = 1.0;
  /// validate(tx) cost charged by the oracle.
  SimDuration validation_cost = 1 * kMillisecond;
  /// Fraction of collectors each governor perceives (1.0 = the paper's
  /// default full connectivity). With v < 1, governor j sees the
  /// ceil(v*n) collectors {(j + k) mod n}, staggered so views overlap.
  double governor_visibility = 1.0;
  /// Enable the equivocation-detection extension (label gossip between
  /// governors after each uploading phase). Mirrors
  /// GovernorConfig::enable_label_gossip, set here for convenience.
  bool enable_label_gossip = false;

  /// Crash/restart fault schedule (governors only). Scheduling any crash
  /// implies durable_governors.
  std::vector<CrashPlan> crashes;
  /// Network fault plan (partitions, loss, delay spikes, duplication,
  /// reordering, slow links), applied through a FaultyTransport decorator.
  /// Scheduling any fault defaults the governors' liveness watchdog on
  /// (watchdog_rounds = 2) unless the config sets it explicitly.
  FaultScheduleSpec faults;
  /// In-protocol Byzantine behavior plan (equivocating leaders, lying sync
  /// peers, Byzantine collectors, double-spending providers), expressed in
  /// the same round-windowed style as `faults`. A non-empty plan switches the
  /// governors' Byzantine defenses on (GovernorConfig::byzantine_defense and
  /// label gossip) — attacks without their paired defenses are not a
  /// supported configuration.
  adversary::AdversarySpec adversary;
  /// Attach a NodeStateStore to every governor even without crashes (to
  /// measure persistence overhead or snapshot sizes).
  bool durable_governors = false;
  /// Directory for on-disk stores (one subdirectory per governor). Empty =>
  /// in-memory stores, which exercise the same framed WAL/snapshot images.
  std::filesystem::path storage_dir;

  /// Number of governor committees (shards). 1 = the classic single-committee
  /// deployment (bit-identical to the pre-sharding harness). With S > 1 the
  /// ShardRouter partitions providers/collectors by stable hash and governors
  /// round-robin; each committee runs the full pipeline on its own chain.
  std::size_t shard_count = 1;
  /// Anchor each committee's chain head into the beacon every K rounds.
  std::size_t anchor_interval = 1;
  /// Fraction of injected transactions deliberately routed to a collector in
  /// a *different* shard (exercising the cross-shard reject path). Only
  /// meaningful with shard_count > 1; 0 keeps the workload RNG stream
  /// untouched.
  double cross_shard_probability = 0.0;

  std::uint64_t seed = 1;
};

/// Per-round time series entry (what a dashboard would chart).
struct RoundRecord {
  Round round = 0;
  std::optional<GovernorId> leader;
  std::size_t block_txs = 0;            // size of this round's block
  std::uint64_t validations_delta = 0;  // oracle validations this round
  std::uint64_t messages_delta = 0;     // network messages this round
  double expected_loss_delta = 0.0;     // governor 0's L increment
  std::uint64_t argues_delta = 0;       // argues accepted (all governors)
};

/// Per-committee slice of a sharded run's outcome.
struct ShardSummary {
  ShardId shard;
  std::size_t providers = 0;
  std::size_t collectors = 0;
  std::size_t governors = 0;
  std::uint64_t blocks = 0;
  std::uint64_t chain_valid_txs = 0;
  std::uint64_t chain_unchecked_txs = 0;
  std::uint64_t chain_argued_txs = 0;
  bool agreement = false;        // committee replicas share a prefix
  bool chains_audit_ok = false;  // integrity on every committee replica
};

/// Aggregated outcome of a run (also see per-node accessors on Scenario).
struct ScenarioSummary {
  std::uint64_t txs_submitted = 0;
  std::uint64_t blocks = 0;
  std::uint64_t chain_valid_txs = 0;
  std::uint64_t chain_unchecked_txs = 0;
  std::uint64_t chain_argued_txs = 0;
  bool agreement = false;        // all governor chains share a prefix
  bool chains_audit_ok = false;  // integrity + no-skipping on every replica
  std::uint64_t stalled_events = 0;     // watchdog kRoundStalled, all nodes
  std::uint64_t byzantine_evidence = 0;  // kByzantineEvidence, all nodes
  std::uint64_t validations_total = 0;  // oracle-wide validate() calls
  double mean_governor_expected_loss = 0.0;
  double mean_governor_realized_loss = 0.0;
  std::uint64_t mean_governor_mistakes = 0;
  net::NetworkStats network;

  /// Sharding: one entry per committee (size 1 for classic runs).
  std::vector<ShardSummary> shards;
  /// Transactions refused at collector intake because provider and collector
  /// live in different committees (TraceKind::kCrossShardRejected).
  std::uint64_t cross_shard_rejected = 0;
  /// Beacon anchors recorded across all committees.
  std::uint64_t anchors_recorded = 0;
  /// Every live replica verified against its shard's latest anchor.
  bool anchors_ok = false;
};

}  // namespace repchain::sim
