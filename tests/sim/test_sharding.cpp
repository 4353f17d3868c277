// Sharded governance: multiple committees each run the full screening /
// argue / stake-consensus pipeline on their own chain. These tests pin the
// end-to-end behavior: committee-local agreement, cross-shard anchoring,
// explicit rejection of committee-spanning traffic, the bounded-history
// cap, and the single-shard degenerate case matching the global summary.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

ScenarioConfig sharded_config() {
  ScenarioConfig cfg;
  cfg.topology.providers = 16;
  cfg.topology.collectors = 8;
  cfg.topology.governors = 4;
  cfg.topology.r = 2;
  cfg.rounds = 5;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.9;
  cfg.audit_probability = 0.5;
  cfg.shard_count = 2;
  cfg.anchor_interval = 2;
  cfg.seed = 99;
  return cfg;
}

TEST(Sharding, TwoCommitteesEachGrowTheirOwnAgreedChain) {
  Scenario s(sharded_config());
  s.run();
  const ScenarioSummary sum = s.summary();

  ASSERT_EQ(sum.shards.size(), 2u);
  std::size_t providers = 0, collectors = 0, governors = 0;
  std::uint64_t blocks = 0, valid = 0;
  for (const ShardSummary& sh : sum.shards) {
    // Every committee made progress on its own chain and its replicas agree.
    EXPECT_GT(sh.blocks, 0u) << "shard " << sh.shard.value();
    EXPECT_TRUE(sh.agreement);
    EXPECT_TRUE(sh.chains_audit_ok);
    providers += sh.providers;
    collectors += sh.collectors;
    governors += sh.governors;
    blocks += sh.blocks;
    valid += sh.chain_valid_txs;
  }
  // The partition is complete: every node sits in exactly one committee.
  EXPECT_EQ(providers, 16u);
  EXPECT_EQ(collectors, 8u);
  EXPECT_EQ(governors, 4u);
  // Global totals are the committee sums.
  EXPECT_EQ(sum.blocks, blocks);
  EXPECT_EQ(sum.chain_valid_txs, valid);
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  EXPECT_GT(sum.chain_valid_txs, 0u);
  // With no cross-shard traffic configured, nothing is rejected.
  EXPECT_EQ(sum.cross_shard_rejected, 0u);
}

TEST(Sharding, AnchorsCommitEveryCommitteeHeadAtTheInterval) {
  Scenario s(sharded_config());
  s.run();
  const ScenarioSummary sum = s.summary();

  // 5 rounds, anchor_interval 2 -> anchors at rounds 2 and 4, one per shard.
  EXPECT_EQ(sum.anchors_recorded, 4u);
  EXPECT_TRUE(sum.anchors_ok);
  const ledger::BeaconLog& beacon = s.beacon();
  ASSERT_TRUE(beacon.latest(ShardId(0)).has_value());
  ASSERT_TRUE(beacon.latest(ShardId(1)).has_value());
  EXPECT_EQ(beacon.latest(ShardId(0))->round, 4u);
  EXPECT_EQ(beacon.latest(ShardId(1))->round, 4u);
  // The anchored head is a real commitment: it matches the committee chain.
  for (std::uint32_t sh = 0; sh < 2; ++sh) {
    const auto rec = beacon.latest(ShardId(sh));
    const GovernorId g = s.shard_router().governors_of(ShardId(sh)).front();
    EXPECT_LE(rec->head_serial, s.governor(g.value()).chain().height());
  }
}

TEST(Sharding, FixedSeedShardedRunsAreDeterministic) {
  Scenario a(sharded_config());
  Scenario b(sharded_config());
  a.run();
  b.run();
  const ScenarioSummary sa = a.summary();
  const ScenarioSummary sb = b.summary();
  EXPECT_EQ(sa.txs_submitted, sb.txs_submitted);
  EXPECT_EQ(sa.blocks, sb.blocks);
  EXPECT_EQ(sa.chain_valid_txs, sb.chain_valid_txs);
  EXPECT_EQ(sa.validations_total, sb.validations_total);
  EXPECT_EQ(sa.network.messages_sent, sb.network.messages_sent);
  EXPECT_EQ(sa.network.bytes_sent, sb.network.bytes_sent);
  ASSERT_EQ(sa.shards.size(), sb.shards.size());
  for (std::size_t i = 0; i < sa.shards.size(); ++i) {
    EXPECT_EQ(sa.shards[i].blocks, sb.shards[i].blocks);
    EXPECT_EQ(sa.shards[i].chain_valid_txs, sb.shards[i].chain_valid_txs);
  }
  EXPECT_EQ(a.beacon().encode(), b.beacon().encode());
}

TEST(Sharding, CrossShardTrafficIsRejectedWithAnExplicitCode) {
  ScenarioConfig cfg = sharded_config();
  cfg.cross_shard_probability = 0.5;
  Scenario s(cfg);
  s.run();
  const ScenarioSummary sum = s.summary();

  // Roughly half the injected txs target a foreign committee's collector;
  // every one of them must bounce with the explicit reject, never land in a
  // block, and never corrupt committee agreement.
  EXPECT_GT(sum.cross_shard_rejected, 0u);
  EXPECT_LT(sum.cross_shard_rejected, sum.txs_submitted);
  // The collector-side stat and the observer's trace tally agree.
  EXPECT_EQ(s.observer().cross_shard_rejected(), sum.cross_shard_rejected);
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  // Rejected txs are gone: the chains cannot hold more than what got through.
  EXPECT_LE(sum.chain_valid_txs + sum.chain_unchecked_txs + sum.chain_argued_txs,
            sum.txs_submitted - sum.cross_shard_rejected);
}

TEST(Sharding, SingleShardSliceMirrorsTheGlobalSummary) {
  ScenarioConfig cfg;
  cfg.topology.providers = 8;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 3;
  cfg.seed = 5;
  Scenario s(cfg);
  s.run();
  const ScenarioSummary sum = s.summary();

  // Classic runs still expose exactly one slice, and it mirrors the global
  // fields (the probe-core aggregation path is unchanged).
  ASSERT_EQ(sum.shards.size(), 1u);
  const ShardSummary& sh = sum.shards.front();
  EXPECT_EQ(sh.shard, ShardId(0));
  EXPECT_EQ(sh.providers, 8u);
  EXPECT_EQ(sh.collectors, 4u);
  EXPECT_EQ(sh.governors, 3u);
  EXPECT_EQ(sh.blocks, sum.blocks);
  EXPECT_EQ(sh.chain_valid_txs, sum.chain_valid_txs);
  EXPECT_EQ(sh.chain_unchecked_txs, sum.chain_unchecked_txs);
  EXPECT_EQ(sh.chain_argued_txs, sum.chain_argued_txs);
  EXPECT_EQ(sh.agreement, sum.agreement);
  EXPECT_EQ(sh.chains_audit_ok, sum.chains_audit_ok);
  EXPECT_EQ(sum.cross_shard_rejected, 0u);
  // anchor_interval defaults to 1: one anchor per round, all verifying.
  EXPECT_EQ(sum.anchors_recorded, 3u);
  EXPECT_TRUE(sum.anchors_ok);
}

}  // namespace
}  // namespace repchain::sim
