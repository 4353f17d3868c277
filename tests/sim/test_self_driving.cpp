// The tentpole property of the runtime refactor: rounds are self-driving.
// Governors armed once with drive_rounds keep re-arming their own phase
// timers, so the chain grows (and replicas agree) with nothing but the clock
// advancing — no harness calls between rounds.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.topology.providers = 4;
  cfg.topology.collectors = 2;
  cfg.topology.governors = 3;
  cfg.topology.r = 1;
  cfg.rounds = 0;  // the harness drives no rounds itself
  cfg.audit_probability = 0.0;
  cfg.seed = 7;
  return cfg;
}

TEST(SelfDriving, AutoRoundsGrowTheChainWithoutHarnessCalls) {
  Scenario s(small_config());
  const auto timing = s.timing();
  for (auto& g : s.governors()) g->drive_rounds(1, s.queue().now(), timing);

  // Advance the clock three round spans: three blocks, one per round, on
  // every replica, even with no transactions injected (empty blocks keep the
  // serial chain gapless).
  s.queue().run_until(s.queue().now() + 3 * timing.round_span);
  for (auto& g : s.governors()) {
    EXPECT_EQ(g->chain().height(), 3u);
    EXPECT_TRUE(g->chain().audit());
  }
  EXPECT_TRUE(ledger::ChainStore::same_prefix(s.governor(0).chain(),
                                              s.governor(1).chain()));

  // The clock alone keeps it going.
  s.queue().run_until(s.queue().now() + timing.round_span);
  EXPECT_EQ(s.governor(0).chain().height(), 4u);
}

TEST(SelfDriving, ScenarioRoundsAreTimerDriven) {
  // run_round arms the deadlines and advances the clock; all phase work
  // happens inside queue events. After the round the queue has quiesced (no
  // stragglers leak into the next round).
  auto cfg = small_config();
  cfg.rounds = 2;
  Scenario s(cfg);
  s.run();
  EXPECT_EQ(s.queue().pending(), 0u);
  EXPECT_EQ(s.governor(0).chain().height(), 2u);
  ASSERT_EQ(s.history().size(), 2u);
  for (const auto& rec : s.history()) {
    EXPECT_TRUE(rec.leader.has_value());
  }
}

}  // namespace
}  // namespace repchain::sim
