// Network-fault golden family: seeded fault schedules (burst loss, healed
// partitions, duplication, reordering, delay spikes) run through the
// FaultyTransport decorator with reliable delivery enabled must be *masked* —
// the cluster converges to the same chain a fault-free run commits — and
// where masking is impossible (a quorum-splitting partition) the liveness
// watchdog must fire and the cluster must recover once the window closes.
#include <gtest/gtest.h>

#include <cstddef>

#include "ledger/chain.hpp"
#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

/// Deterministic reliable-delivery baseline: fixed 2ms links (Delta = 2ms,
/// base RTO = 6ms), honest collectors, no out-of-band audits or argues.
ScenarioConfig reliable_config() {
  ScenarioConfig cfg;
  cfg.topology.providers = 4;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 4;
  cfg.topology.r = 2;
  cfg.rounds = 8;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.providers_active = false;
  cfg.audit_probability = 0.0;
  cfg.latency = net::LatencyModel{2 * kMillisecond, 2 * kMillisecond};
  cfg.governor.reliable_delivery = true;
  cfg.seed = 7001;
  return cfg;
}

void expect_cluster_converged(Scenario& s) {
  const auto sum = s.summary();
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  const std::size_t n = s.config().topology.governors;
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(s.governor(i).chain().height(), s.governor(0).chain().height()) << i;
    EXPECT_TRUE(ledger::ChainStore::same_prefix(s.governor(0).chain(),
                                                s.governor(i).chain()))
        << i;
  }
}

/// A governor index that never led rounds [from, until) in `base` — safe to
/// cut off without changing the elected leaders of those rounds.
std::size_t idle_governor(Scenario& base, std::size_t from, std::size_t until) {
  const std::size_t n = base.config().topology.governors;
  for (std::size_t g = 0; g < n; ++g) {
    bool led = false;
    for (std::size_t r = from; r < until; ++r) {
      const auto leader = base.observer().leader(r);
      if (leader && leader->value() == g) led = true;
    }
    if (!led) return g;
  }
  ADD_FAILURE() << "every governor led a partition round";
  return 0;
}

TEST(FaultScheduleSim, BurstLossAndHealedPartitionCommitTheFaultFreeChain) {
  // The issue's headline acceptance: 10% burst loss on every link plus one
  // three-round partition (healed afterwards) at a fixed seed must commit
  // exactly the chain the fault-free reliable run commits — the reliable
  // channel masks the loss, and the partitioned governor (never a leader in
  // the window) catches up via sync without perturbing the majority.
  Scenario base(reliable_config());
  base.run();
  const auto base_sum = base.summary();
  ASSERT_EQ(base_sum.blocks, 8u);
  ASSERT_TRUE(base_sum.agreement);

  ScenarioConfig cfg = reliable_config();
  LossSpec loss;
  loss.from_round = 2;
  loss.until_round = 5;
  loss.probability = 0.10;
  PartitionSpec part;
  part.from_round = 2;
  part.until_round = 5;  // three rounds, healed at round 5
  part.governors = {idle_governor(base, 2, 5)};
  cfg.faults.losses = {loss};
  cfg.faults.partitions = {part};
  Scenario faulted(cfg);
  faulted.run();

  expect_cluster_converged(faulted);
  const auto sum = faulted.summary();
  EXPECT_EQ(sum.blocks, base_sum.blocks);
  EXPECT_EQ(sum.chain_valid_txs, base_sum.chain_valid_txs);
  EXPECT_EQ(sum.chain_unchecked_txs, base_sum.chain_unchecked_txs);
  EXPECT_EQ(faulted.governor(0).chain().height(),
            base.governor(0).chain().height());
  EXPECT_TRUE(ledger::ChainStore::same_prefix(base.governor(0).chain(),
                                              faulted.governor(0).chain()));
  // The faults really happened: the decorator dropped traffic.
  ASSERT_NE(faulted.fault_stats(), nullptr);
  EXPECT_GT(faulted.fault_stats()->loss_drops, 0u);
  EXPECT_GT(faulted.fault_stats()->partition_drops, 0u);
  // The channel did the masking.
  EXPECT_GT(faulted.governor(0).channel()->stats().retransmits, 0u);
}

TEST(FaultScheduleSim, DuplicationAndReorderingStayMasked) {
  // Random duplication and bounded reordering across the whole run: the
  // channel's dedup plus the idempotent receive paths keep every replica in
  // agreement with a full-length chain.
  ScenarioConfig cfg = reliable_config();
  DuplicationSpec dup;
  dup.from_round = 1;
  dup.until_round = 9;
  dup.probability = 0.3;
  ReorderSpec reorder;
  reorder.from_round = 1;
  reorder.until_round = 9;
  reorder.probability = 0.3;
  reorder.max_extra = 4 * kMillisecond;
  cfg.faults.duplications = {dup};
  cfg.faults.reorders = {reorder};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_EQ(s.summary().blocks, 8u);
  ASSERT_NE(s.fault_stats(), nullptr);
  EXPECT_GT(s.fault_stats()->duplicated, 0u);
  EXPECT_GT(s.fault_stats()->reordered, 0u);
}

TEST(FaultScheduleSim, DuplicationWithoutReliableDeliveryIsIdempotent) {
  // Even with the channel off, duplicated uploads / announcements / broadcast
  // copies must not double-screen or double-count: the screened-id set, the
  // election's per-governor record and the sequenced-duplicate guard absorb
  // the replays.
  ScenarioConfig cfg = reliable_config();
  cfg.governor.reliable_delivery = false;
  DuplicationSpec dup;
  dup.from_round = 1;
  dup.until_round = 9;
  dup.probability = 0.5;
  cfg.faults.duplications = {dup};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_EQ(s.summary().blocks, 8u);
  ASSERT_NE(s.fault_stats(), nullptr);
  EXPECT_GT(s.fault_stats()->duplicated, 0u);
}

TEST(FaultScheduleSim, QuorumSplittingPartitionTripsWatchdogThenRecovers) {
  // A 2-2 governor split leaves neither side a majority: elections cannot
  // close, rounds stall, the watchdog fires on every replica. Once the
  // partition heals the cluster resumes committing and reconverges.
  ScenarioConfig cfg = reliable_config();
  cfg.rounds = 8;
  PartitionSpec part;
  part.from_round = 2;
  part.until_round = 4;
  part.governors = {0, 1};
  cfg.faults.partitions = {part};
  Scenario s(cfg);
  s.run();

  const auto sum = s.summary();
  EXPECT_GE(sum.stalled_events, 1u);  // the watchdog saw the stall
  expect_cluster_converged(s);
  // Rounds outside the split still committed (1 plus the healed tail).
  EXPECT_GE(sum.blocks, 4u);
  EXPECT_LT(sum.blocks, 8u);
  std::uint64_t trips = 0;
  for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
    trips += s.governor(g).metrics().watchdog_trips;
  }
  EXPECT_GE(trips, 1u);
}

TEST(FaultScheduleSim, GovernorCrashedWhilePartitionedCatchesUpAfterHeal) {
  // Compound fault: governor 1 is cut off in round 2, crashes in round 3,
  // restarts in round 4 *still inside the partition* (its recovery sync times
  // out against severed links), and only after the heal at round 5 can the
  // watchdog-driven resync pull the missed blocks from live peers.
  ScenarioConfig cfg = reliable_config();
  cfg.rounds = 8;
  PartitionSpec part;
  part.from_round = 2;
  part.until_round = 5;
  part.governors = {1};
  cfg.faults.partitions = {part};
  CrashPlan plan;
  plan.governor = 1;
  plan.crash_round = 3;
  plan.crash_offset = 0;
  plan.restart_round = 4;
  cfg.crashes = {plan};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_TRUE(s.governor(1).chain().audit());
  EXPECT_GE(s.governor(1).metrics().blocks_synced, 1u);
  // The recovery sync hit the dead partition at least once before the heal.
  EXPECT_GE(s.governor(1).metrics().sync_timeouts, 1u);
  ASSERT_NE(s.fault_stats(), nullptr);
  EXPECT_GT(s.fault_stats()->partition_drops, 0u);
}

TEST(FaultScheduleSim, DelaySpikePastTheSynchronyBoundRecovers) {
  // A two-round delay spike pushing every link past Delta violates the
  // round-timing assumptions; the watchdog/sync machinery must reconverge
  // the replicas once the spike ends, even if spiked rounds produce nothing.
  ScenarioConfig cfg = reliable_config();
  cfg.rounds = 8;
  DelaySpikeSpec spike;
  spike.from_round = 2;
  spike.until_round = 4;
  spike.extra = 3 * kMillisecond;
  spike.jitter = 2 * kMillisecond;
  cfg.faults.delay_spikes = {spike};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_GE(s.summary().blocks, 5u);
  ASSERT_NE(s.fault_stats(), nullptr);
  EXPECT_GT(s.fault_stats()->delay_extended, 0u);
}

/// The chaos-soak configuration these two regressions were minimized from
/// (tools/chaos_soak.cpp): 1-3ms links, three tx per provider per round.
ScenarioConfig chaos_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 4;
  cfg.topology.r = 2;
  cfg.rounds = 10;
  cfg.txs_per_provider_per_round = 3;
  cfg.p_valid = 0.8;
  cfg.latency = net::LatencyModel{1 * kMillisecond, 2 * kMillisecond};
  cfg.governor.reliable_delivery = true;
  cfg.seed = seed;
  return cfg;
}

TEST(FaultScheduleSim, WinnerCrashingAfterAnnouncingDoesNotSplitTheElection) {
  // Chaos regression (soak seed 50001): governor 1 announces the round's
  // winning ticket, then crashes before proposing; under burst loss some
  // peers hold its announcement and some never will (the retransmission
  // source is dead). Without the announcement echo relay the view splits at
  // propose time — one side waits for a dead leader while a behind replica
  // elects itself and self-commits a forked block it can never roll back.
  ScenarioConfig cfg = chaos_config(50001);
  cfg.faults.losses = {{2, 4, 0.17}};
  cfg.faults.duplications = {{2, 5, 0.19}};
  cfg.faults.reorders = {{3, 5, 0.243, 4 * kMillisecond}};
  cfg.crashes = {{1, 3, 0, 4}};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_GE(s.summary().blocks, 7u);
}

TEST(FaultScheduleSim, LaggingIslandMatesCannotConfirmEachOthersStaleHead) {
  // Chaos regression (soak seed 50003): governors 0 (partitioned) and 1
  // (crashed) both miss a legitimately committed block; after the heal,
  // governor 0's catch-up sync polls governor 1 — exactly as far behind —
  // and a lone "nothing above your head" answer must NOT conclude the pass,
  // or the stale pair elects a leader and mints a conflicting serial. The
  // pass needs majority corroboration before declaring the head current.
  ScenarioConfig cfg = chaos_config(50003);
  cfg.faults.losses = {{3, 6, 0.189}};
  cfg.faults.reorders = {{2, 5, 0.2, 4 * kMillisecond}};
  PartitionSpec part;
  part.from_round = 3;
  part.until_round = 4;
  part.governors = {0};
  cfg.faults.partitions = {part};
  cfg.crashes = {{1, 3, 0, 4}};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_GE(s.summary().blocks, 7u);
}

}  // namespace
}  // namespace repchain::sim
