// Byzantine adversary golden family: pinned scenarios, one per in-protocol
// attack of src/adversary/, each asserting the paired defense's full loop —
// the attack really fired (offender-side counters), every honest replica
// detected it (defense counters + kByzantineEvidence), punishment landed
// (expulsion / reputation), and the honest cluster kept agreeing and
// committing. Seeds are pinned; these are regressions, not soaks (the
// randomized sweep lives in tools/chaos_soak --byzantine).
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <utility>

#include "ledger/chain.hpp"
#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

/// The chaos-soak Byzantine configuration (tools/chaos_soak.cpp): 1-2ms
/// links, reliable delivery, clean network — Byzantine behavior only.
ScenarioConfig byz_config(std::uint64_t seed) {
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

/// All honest governors share a prefix and pass the chain audit; Byzantine
/// replicas (their chains may legitimately diverge mid-attack) are skipped.
void expect_honest_converged(Scenario& s, std::size_t byz_gov) {
  const std::size_t n = s.config().topology.governors;
  const protocol::Governor* ref = nullptr;
  for (std::size_t g = 0; g < n; ++g) {
    if (g == byz_gov) continue;
    EXPECT_TRUE(s.governor(g).chain().audit()) << g;
    if (ref == nullptr) {
      ref = &s.governor(g);
      continue;
    }
    EXPECT_TRUE(ledger::ChainStore::same_prefix(ref->chain(), s.governor(g).chain()))
        << g;
    EXPECT_EQ(ref->chain().height(), s.governor(g).chain().height()) << g;
  }
}

TEST(ByzantineSim, EquivocatingLeaderIsExpelledByEveryHonestReplica) {
  // Governor 3, holding a dominant stake (5 of 8) so it keeps winning
  // elections, signs two conflicting blocks per led round in [2, 8). The
  // honest replicas must catch the conflicting signatures, expel it, keep
  // agreeing, and keep committing rounds it no longer leads.
  ScenarioConfig cfg = byz_config(9001);
  cfg.governor_stakes = {1, 1, 1, 5};
  adversary::EquivocatingLeaderSpec e;
  e.from_round = 2;
  e.until_round = 8;
  e.governor = 3;
  cfg.adversary.equivocating_leaders = {e};
  Scenario s(cfg);
  s.run();

  ASSERT_GT(s.governor(3).metrics().byzantine_equivocations_sent, 0u);
  std::uint64_t detected = 0;
  for (std::size_t g = 0; g < 3; ++g) {
    detected += s.governor(g).metrics().proposal_equivocations;
    EXPECT_TRUE(s.governor(g).expelled().contains(GovernorId(3))) << g;
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(s.summary().byzantine_evidence, 0u);
  expect_honest_converged(s, 3);
  // The honest majority keeps the chain growing once the equivocator is out.
  EXPECT_GE(s.summary().blocks, 7u);
}

TEST(ByzantineSim, CrashedReplicaRelearnsExpulsionFromResharedEvidence) {
  // Regression minimized from soak seed 90006: governor 3 equivocates in
  // round 2 and is expelled; governor 2 crashes in round 3 — *after* the
  // expel broadcast — and restarts in round 4 with its in-memory expelled
  // set gone. The expelled leader never proposes again (its own election
  // excludes it) but keeps announcing with its dominant stake, so without
  // evidence resharing governor 2 elects it forever and stalls every round
  // the others elect governor 2. Honest replicas must re-broadcast the held
  // equivocation proof when they see the expelled governor announce, so the
  // restarted replica re-learns the expulsion and the tail keeps committing.
  ScenarioConfig cfg = byz_config(9002);
  cfg.governor_stakes = {1, 1, 1, 5};
  adversary::EquivocatingLeaderSpec e;
  e.from_round = 2;
  e.until_round = 8;
  e.governor = 3;
  cfg.adversary.equivocating_leaders = {e};
  CrashPlan plan;
  plan.governor = 2;
  plan.crash_round = 3;
  plan.crash_offset = 0;
  plan.restart_round = 4;
  cfg.crashes = {plan};
  Scenario s(cfg);
  s.run();

  ASSERT_GT(s.governor(3).metrics().byzantine_equivocations_sent, 0u);
  // The restarted replica re-learned the expulsion from reshared evidence.
  EXPECT_TRUE(s.governor(2).expelled().contains(GovernorId(3)));
  expect_honest_converged(s, 3);
  // Tail liveness: the final round still committed a block.
  ASSERT_FALSE(s.governor(0).chain().empty());
  EXPECT_GE(s.governor(0).chain().head().round, cfg.rounds - 1);
  EXPECT_GE(s.summary().blocks, 7u);
}

TEST(ByzantineSim, LyingSyncPeerIsOutvotedByCorroboration) {
  // Governor 1 serves internally-forged blocks to every sync caller in
  // [2, 9); governor 3 crashes in round 3 and restarts in round 4, so its
  // recovery sync polls the liar among its peers. Governor replicas demand
  // two byte-identical responses per serial before adopting, so the lone
  // forged variant must be rejected and the cluster must fully reconverge
  // (the liar's own chain is honest — it only lies on the wire).
  ScenarioConfig cfg = byz_config(9023);
  adversary::LyingSyncSpec lie;
  lie.from_round = 2;
  lie.until_round = 9;
  lie.governor = 1;
  cfg.adversary.lying_sync_peers = {lie};
  CrashPlan plan;
  plan.governor = 3;
  plan.crash_round = 3;
  plan.crash_offset = 0;
  plan.restart_round = 4;
  cfg.crashes = {plan};
  Scenario s(cfg);
  s.run();

  ASSERT_GT(s.governor(1).metrics().byzantine_lies_served, 0u);
  ASSERT_GT(s.governor(1).metrics().byzantine_lies_to_governors, 0u);
  std::uint64_t rejected = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    if (g == 1) continue;
    rejected += s.governor(g).metrics().lying_sync_rejected;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(s.summary().byzantine_evidence, 0u);
  // Nothing forged was adopted anywhere: full-cluster agreement holds.
  EXPECT_TRUE(s.summary().agreement);
  EXPECT_TRUE(s.summary().chains_audit_ok);
  EXPECT_GE(s.summary().blocks, 8u);
}

TEST(ByzantineSim, ByzantineCollectorForgeriesAndEquivocationsArePunished) {
  // Collector 1 misbehaves on every axis in [2, 8): flips labels, fabricates
  // uploads with forged provider signatures, and equivocates labels across
  // governors. Signature checks must catch every forgery, label gossip must
  // catch the equivocation, and the reputation table must push its revenue
  // scores below every honest collector's.
  ScenarioConfig cfg = byz_config(9004);
  adversary::ByzantineCollectorSpec c;
  c.from_round = 2;
  c.until_round = 8;
  c.collector = 1;
  c.flip_probability = 0.3;
  c.forge_probability = 0.3;
  c.equivocate = true;
  cfg.adversary.byzantine_collectors = {c};
  Scenario s(cfg);
  s.run();

  const auto& stats = s.collectors()[1].stats();
  ASSERT_GT(stats.forged, 0u);
  ASSERT_GT(stats.equivocated, 0u);
  std::uint64_t forgeries = 0;
  std::uint64_t label_equivs = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    forgeries += s.governor(g).metrics().forgeries_detected;
    label_equivs += s.governor(g).metrics().equivocations_detected;
  }
  EXPECT_GT(forgeries, 0u);
  EXPECT_GT(label_equivs, 0u);
  EXPECT_GT(s.summary().byzantine_evidence, 0u);
  // Punishment: the forge counter went negative, and every honest collector
  // outranks the Byzantine one on misreport score.
  const auto& rep = s.governor(0).reputation();
  EXPECT_LT(rep.forge(CollectorId(1)), 0);
  for (std::uint32_t k = 0; k < 4; ++k) {
    if (k == 1) continue;
    EXPECT_GT(rep.misreport(CollectorId(k)), rep.misreport(CollectorId(1))) << k;
  }
  EXPECT_TRUE(s.summary().agreement);
  EXPECT_EQ(s.summary().blocks, 10u);
}

TEST(ByzantineSim, DoubleSpendingProviderNeverGetsTwinsCommitted) {
  // Provider 4 reuses sequence numbers at rate 0.5 in [2, 9), sending each
  // twin to a disjoint half of its collectors. The governors' per-provider
  // serial guard must flag the reuse, and no (provider, seq) pair may appear
  // twice in the committed chain.
  ScenarioConfig cfg = byz_config(9005);
  adversary::DoubleSpendSpec d;
  d.from_round = 2;
  d.until_round = 9;
  d.provider = 4;
  d.probability = 0.5;
  cfg.adversary.double_spenders = {d};
  Scenario s(cfg);
  s.run();

  ASSERT_GT(s.providers()[4].double_spends_submitted(), 0u);
  std::uint64_t detected = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    detected += s.governor(g).metrics().double_spends_detected;
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(s.summary().byzantine_evidence, 0u);
  // Almost No Creation: every (provider, seq) pair committed at most once.
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
  for (const auto& block : s.governor(0).chain().blocks()) {
    for (const auto& rec : block.txs) {
      const auto key = std::make_pair(rec.tx.provider.value(), rec.tx.seq);
      EXPECT_EQ(++seen[key], 1)
          << "twin committed: provider " << rec.tx.provider.value() << " seq "
          << rec.tx.seq;
    }
  }
  EXPECT_TRUE(s.summary().agreement);
  EXPECT_EQ(s.summary().blocks, 10u);
}

TEST(ByzantineSim, AttackWindowEndRestoresTheBaselineBehavior) {
  // The adversary layer swaps the collector's behavior profile at the window
  // start and restores the configured baseline at the window end: forgeries
  // happen inside [2, 4) and never after.
  ScenarioConfig cfg = byz_config(9006);
  adversary::ByzantineCollectorSpec c;
  c.from_round = 2;
  c.until_round = 4;
  c.collector = 0;
  c.forge_probability = 0.6;
  cfg.adversary.byzantine_collectors = {c};
  Scenario s(cfg);
  for (std::size_t r = 0; r < 3; ++r) s.run_round();  // rounds 1-3 done
  const std::uint64_t forged_in_window = s.collectors()[0].stats().forged;
  ASSERT_GT(forged_in_window, 0u);
  for (std::size_t r = 3; r < cfg.rounds; ++r) s.run_round();

  EXPECT_EQ(s.collectors()[0].stats().forged, forged_in_window);
  EXPECT_TRUE(s.summary().agreement);
  EXPECT_EQ(s.summary().blocks, 10u);
}

TEST(ByzantineSim, EmptyAdversarySpecStaysFullyHonest) {
  // Soundness at the harness level: a default-constructed AdversarySpec must
  // not toggle any defense or inject anything — zero evidence, zero
  // expulsions, no attack counters anywhere.
  Scenario s(byz_config(9007));
  s.run();

  EXPECT_EQ(s.summary().byzantine_evidence, 0u);
  for (std::size_t g = 0; g < 4; ++g) {
    const auto& m = s.governor(g).metrics();
    EXPECT_TRUE(s.governor(g).expelled().empty()) << g;
    EXPECT_EQ(m.byzantine_equivocations_sent, 0u) << g;
    EXPECT_EQ(m.byzantine_lies_served, 0u) << g;
    EXPECT_EQ(m.proposal_equivocations, 0u) << g;
    EXPECT_EQ(m.lying_sync_rejected, 0u) << g;
    EXPECT_EQ(m.double_spends_detected, 0u) << g;
  }
  for (auto& collector : s.collectors()) {
    EXPECT_EQ(collector.stats().forged, 0u);
    EXPECT_EQ(collector.stats().equivocated, 0u);
  }
  EXPECT_TRUE(s.summary().agreement);
  EXPECT_EQ(s.summary().blocks, 10u);
}

}  // namespace
}  // namespace repchain::sim
