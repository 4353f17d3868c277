// Golden regression: for fixed seeds the whole-protocol run must stay
// bit-identical across refactors of the runtime/round machinery. Every value
// below (including the hexfloat doubles) was captured from the seed
// implementation; any diff here means the event schedule, an RNG stream, or
// a protocol decision changed.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

struct GoldenRound {
  Round round;
  int leader;  // -1 = none elected
  std::size_t block_txs;
  std::uint64_t validations_delta;
  std::uint64_t messages_delta;
  double expected_loss_delta;
  std::uint64_t argues_delta;
};

void expect_history(const std::vector<RoundRecord>& history,
                    const std::vector<GoldenRound>& golden) {
  ASSERT_EQ(history.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "round " << golden[i].round);
    EXPECT_EQ(history[i].round, golden[i].round);
    ASSERT_TRUE(history[i].leader.has_value());
    EXPECT_EQ(static_cast<int>(history[i].leader->value()), golden[i].leader);
    EXPECT_EQ(history[i].block_txs, golden[i].block_txs);
    EXPECT_EQ(history[i].validations_delta, golden[i].validations_delta);
    EXPECT_EQ(history[i].messages_delta, golden[i].messages_delta);
    EXPECT_EQ(history[i].expected_loss_delta, golden[i].expected_loss_delta);
    EXPECT_EQ(history[i].argues_delta, golden[i].argues_delta);
  }
}

TEST(GoldenSummary, MixedAdversarialMixSeed42) {
  ScenarioConfig cfg;
  cfg.topology.providers = 8;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 5;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.audit_probability = 0.6;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.9),
                   protocol::CollectorBehavior::misreporting(0.3),
                   protocol::CollectorBehavior::forging(0.2)};
  cfg.seed = 42;
  Scenario s(cfg);
  s.run();
  const auto sum = s.summary();

  EXPECT_EQ(sum.txs_submitted, 80u);
  EXPECT_EQ(sum.blocks, 5u);
  EXPECT_EQ(sum.chain_valid_txs, 61u);
  EXPECT_EQ(sum.chain_unchecked_txs, 7u);
  EXPECT_EQ(sum.chain_argued_txs, 1u);
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  EXPECT_EQ(sum.validations_total, 223u);
  EXPECT_EQ(sum.mean_governor_expected_loss, 0x1.8p+1);
  EXPECT_EQ(sum.mean_governor_realized_loss, 0x1.2aaaaaaaaaaabp+2);
  EXPECT_EQ(sum.mean_governor_mistakes, 2u);
  EXPECT_EQ(sum.network.messages_sent, 893u);
  EXPECT_EQ(sum.network.messages_dropped, 0u);
  EXPECT_EQ(sum.network.bytes_sent, 219249u);

  const std::vector<double> rewards{0x1.105360b1ad57ep+5, 0x1.b2c63fc1a8776p+3,
                                    0x1.5a34c0f4e2309p+3, 0x1.c6ddf20affe17p+1};
  EXPECT_EQ(s.collector_rewards(), rewards);
  const std::vector<std::uint64_t> leads{2, 1, 2};
  EXPECT_EQ(s.leader_counts(), leads);

  expect_history(s.history(), {{1, 2, 14, 45, 178, 0x1p+0, 0},
                               {2, 2, 13, 45, 184, 0x1p+0, 2},
                               {3, 1, 14, 42, 184, 0x1p+0, 1},
                               {4, 0, 15, 45, 172, 0x0p+0, 0},
                               {5, 0, 13, 46, 175, 0x0p+0, 0}});
}

TEST(GoldenSummary, EquivocationGossipSeed2112) {
  ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 3;
  cfg.topology.governors = 4;
  cfg.topology.r = 2;
  cfg.rounds = 4;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::equivocating()};
  cfg.enable_label_gossip = true;
  cfg.seed = 2112;
  Scenario s(cfg);
  s.run();
  const auto sum = s.summary();

  EXPECT_EQ(sum.txs_submitted, 48u);
  EXPECT_EQ(sum.blocks, 4u);
  EXPECT_EQ(sum.chain_valid_txs, 36u);
  EXPECT_EQ(sum.chain_unchecked_txs, 5u);
  EXPECT_EQ(sum.chain_argued_txs, 0u);
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  EXPECT_EQ(sum.validations_total, 177u);
  EXPECT_EQ(sum.mean_governor_expected_loss, 0x1.8p-1);
  EXPECT_EQ(sum.mean_governor_realized_loss, 0x1p+0);
  EXPECT_EQ(sum.mean_governor_mistakes, 0u);
  EXPECT_EQ(sum.network.messages_sent, 720u);
  EXPECT_EQ(sum.network.messages_dropped, 0u);
  EXPECT_EQ(sum.network.bytes_sent, 435092u);

  const std::vector<double> rewards{0x1.18ec2fdb20cbfp+4, 0x1.23953b8ecca5p+4,
                                    0x1.bf4a4b0947851p-3};
  EXPECT_EQ(s.collector_rewards(), rewards);
  const std::vector<std::uint64_t> leads{0, 0, 3, 1};
  EXPECT_EQ(s.leader_counts(), leads);

  expect_history(s.history(), {{1, 2, 11, 45, 180, 0x0p+0, 0},
                               {2, 2, 11, 46, 180, 0x0p+0, 0},
                               {3, 2, 11, 47, 180, 0x0p+0, 0},
                               {4, 3, 8, 39, 180, 0x0p+0, 0}});
}

// The mixed-adversary run again, with every tier on reliable delivery, two
// stake transfers and a loss + duplication + reordering window from round 2:
// pins the order of every channel send, retransmission and local copy.
TEST(GoldenSummary, ReliableDeliveryLossyMixSeed42) {
  ScenarioConfig cfg;
  cfg.topology.providers = 8;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 5;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.audit_probability = 0.6;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.9),
                   protocol::CollectorBehavior::misreporting(0.3),
                   protocol::CollectorBehavior::forging(0.2)};
  cfg.seed = 42;
  cfg.governor.reliable_delivery = true;
  cfg.governor_stakes = {5, 5, 5};
  LossSpec loss;
  loss.from_round = 2;
  loss.until_round = 4;
  loss.probability = 0.15;
  DuplicationSpec dup;
  dup.from_round = 2;
  dup.until_round = 6;
  dup.probability = 0.2;
  ReorderSpec reorder;
  reorder.from_round = 2;
  reorder.until_round = 6;
  reorder.probability = 0.3;
  reorder.max_extra = 4 * kMillisecond;
  cfg.faults.losses = {loss};
  cfg.faults.duplications = {dup};
  cfg.faults.reorders = {reorder};
  Scenario s(cfg);

  s.governor(0).submit_stake_transfer(GovernorId(1), 2);
  s.governor(2).submit_stake_transfer(GovernorId(0), 1);
  s.queue().run();
  s.run();
  const auto sum = s.summary();

  EXPECT_EQ(sum.txs_submitted, 80u);
  EXPECT_EQ(sum.blocks, 5u);
  EXPECT_EQ(sum.chain_valid_txs, 60u);
  EXPECT_EQ(sum.chain_unchecked_txs, 14u);
  EXPECT_EQ(sum.chain_argued_txs, 1u);
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  EXPECT_EQ(sum.validations_total, 213u);
  EXPECT_EQ(sum.mean_governor_expected_loss, 0x1.7e551a7376ea3p+2);
  EXPECT_EQ(sum.mean_governor_realized_loss, 0x1p+3);
  EXPECT_EQ(sum.mean_governor_mistakes, 3u);
  EXPECT_EQ(sum.network.messages_sent, 2330u);
  EXPECT_EQ(sum.network.messages_dropped, 0u);
  EXPECT_EQ(sum.network.bytes_sent, 330248u);

  const std::vector<double> rewards{0x1.dceb37ebf3678p+4, 0x1.fc835398fbb34p+3,
                                    0x1.79ca98273b838p+3, 0x1.bf6e919f87e94p+1};
  EXPECT_EQ(s.collector_rewards(), rewards);
  const std::vector<std::uint64_t> leads{1, 3, 1};
  EXPECT_EQ(s.leader_counts(), leads);

  expect_history(s.history(), {{1, 2, 15, 44, 370, 0x0p+0, 0},
                               {2, 1, 14, 40, 495, 0x1p+1, 1},
                               {3, 1, 16, 40, 516, 0x0p+0, 2},
                               {4, 0, 15, 45, 458, 0x1p+0, 2},
                               {5, 1, 15, 44, 483, 0x1p+0, 0}});

  for (std::size_t g = 0; g < 3; ++g) {
    SCOPED_TRACE(testing::Message() << "governor " << g);
    EXPECT_TRUE(s.governor(g).expelled().empty());
    EXPECT_EQ(s.governor(g).stake().of(GovernorId(0)), 4u);
    EXPECT_EQ(s.governor(g).stake().of(GovernorId(1)), 7u);
    EXPECT_EQ(s.governor(g).stake().of(GovernorId(2)), 4u);
  }
  ASSERT_NE(s.governor(0).channel(), nullptr);
  EXPECT_GT(s.governor(0).channel()->stats().retransmits, 0u);
}

}  // namespace
}  // namespace repchain::sim
