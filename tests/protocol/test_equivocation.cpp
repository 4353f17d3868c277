// Tests for the equivocation-detection extension: governors gossip the
// signed labels they received; conflicting signatures by one collector over
// the same transaction are a self-contained proof, punished like a forgery.
// The unit-level section at the bottom drives the detector directly through
// its edge cases: malformed gossip, signature checks, conflicts straddling
// the age-out boundary, and leader-proposal equivocation.
#include <gtest/gtest.h>

#include "crypto/keygen.hpp"
#include "ledger/block.hpp"
#include "protocol/equivocation_detector.hpp"
#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

using protocol::CollectorBehavior;

ScenarioConfig config_with_gossip(bool gossip) {
  ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 3;
  cfg.topology.governors = 4;  // even count: the equivocator's alternating
                               // labels split 2/2 across governors
  cfg.topology.r = 2;
  cfg.rounds = 4;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.behaviors = {CollectorBehavior::honest(), CollectorBehavior::honest(),
                   CollectorBehavior::equivocating()};
  cfg.enable_label_gossip = gossip;
  cfg.seed = 2112;
  return cfg;
}

TEST(Equivocation, DetectedWhenGossipEnabled) {
  Scenario s(config_with_gossip(true));
  s.run();

  std::uint64_t detections = 0;
  for (auto& g : s.governors()) detections += g->metrics().equivocations_detected;
  EXPECT_GT(detections, 0u);

  // The equivocator's forge counter went negative under every governor that
  // caught a conflict; honest collectors are untouched everywhere.
  for (auto& g : s.governors()) {
    EXPECT_EQ(g->reputation().forge(CollectorId(0)), 0);
    EXPECT_EQ(g->reputation().forge(CollectorId(1)), 0);
  }
  bool punished_somewhere = false;
  for (auto& g : s.governors()) {
    punished_somewhere |= g->reputation().forge(CollectorId(2)) < 0;
  }
  EXPECT_TRUE(punished_somewhere);
}

TEST(Equivocation, InvisibleWithoutGossip) {
  Scenario s(config_with_gossip(false));
  s.run();
  for (auto& g : s.governors()) {
    EXPECT_EQ(g->metrics().equivocations_detected, 0u);
    EXPECT_EQ(g->reputation().forge(CollectorId(2)), 0);
  }
}

TEST(Equivocation, HonestRunProducesNoFalsePositives) {
  auto cfg = config_with_gossip(true);
  cfg.behaviors = {CollectorBehavior::honest(), CollectorBehavior::noisy(0.7),
                   CollectorBehavior::misreporting(0.5)};
  Scenario s(cfg);
  s.run();
  // Noise and misreporting produce *consistent* labels across governors
  // (the collector signs once and atomically broadcasts); only equivocation
  // triggers the detector.
  for (auto& g : s.governors()) {
    EXPECT_EQ(g->metrics().equivocations_detected, 0u);
  }
}

TEST(Equivocation, PunishedAtMostOncePerTransaction) {
  Scenario s(config_with_gossip(true));
  s.run();
  // Each governor punishes each (collector, tx) conflict at most once, so
  // the forge counter magnitude never exceeds the number of transactions the
  // equivocator handled.
  std::uint64_t handled = s.collectors()[2].stats().uploaded;
  for (auto& g : s.governors()) {
    EXPECT_LE(static_cast<std::uint64_t>(-g->reputation().forge(CollectorId(2))),
              handled);
  }
}

TEST(Equivocation, GossipCutsEquivocatorRevenue) {
  auto cfg = config_with_gossip(true);
  cfg.rounds = 8;
  Scenario with(cfg);
  with.run();
  // Under gossip, the equivocator's revenue share collapses via nu^forge.
  for (auto& g : with.governors()) {
    if (g->metrics().equivocations_detected == 0) continue;
    double equiv_share = 0.0, honest_share = 0.0;
    for (const auto& [c, share] : g->revenue_shares()) {
      if (c == CollectorId(2)) equiv_share = share;
      if (c == CollectorId(0)) honest_share = share;
    }
    EXPECT_LT(equiv_share, honest_share);
  }
}

// --- Unit-level edge cases ---------------------------------------------------

struct DetectorEdgeFixture : ::testing::Test {
  DetectorEdgeFixture() {
    directory.add_collector(CollectorId(0), NodeId(0));
    im.enroll(NodeId(0), identity::Role::kCollector, collector_key.public_key());
    directory.add_governor(GovernorId(7), NodeId(1));
    im.enroll(NodeId(1), identity::Role::kGovernor, leader_key.public_key());
    table.register_collector(CollectorId(0));
    table.link(CollectorId(0), ProviderId(0));
    detector.set_evidence([this](adversary::ByzantineKind, std::uint64_t) {
      ++evidence_fired;
    });
  }

  ledger::Transaction make_tx(std::uint64_t seq) {
    return ledger::make_transaction(ProviderId(0), seq, 0, rng.bytes(8),
                                    provider_key);
  }

  /// A signed leader block at `serial`; varying `round` varies the content,
  /// so two calls with different rounds are a conflicting pair.
  ledger::Block leader_block(BlockSerial serial, Round round) {
    return ledger::make_block(serial, round, crypto::Hash256{}, GovernorId(7), {},
                              leader_key);
  }

  Rng rng{66};
  identity::IdentityManager im{crypto::random_seed(rng)};
  protocol::Directory directory;
  reputation::ReputationTable table{reputation::ReputationParams{}};
  protocol::GovernorMetrics metrics;
  crypto::SigningKey provider_key{crypto::random_seed(rng)};
  crypto::SigningKey collector_key{crypto::random_seed(rng)};
  crypto::SigningKey leader_key{crypto::random_seed(rng)};
  protocol::EquivocationDetector detector{im, directory, table, metrics};
  int evidence_fired = 0;
};

TEST_F(DetectorEdgeFixture, LabelConflictStraddlingOneAgeOutStillDetected) {
  // The two-generation window exists exactly for this: the local label lands
  // late in round r, the peer's conflicting gossip arrives in round r+1.
  const auto tx = make_tx(1);
  detector.note_label(
      tx.id(), ledger::make_labeled(tx, ledger::Label::kValid, CollectorId(0),
                                    collector_key));
  detector.age_out();  // one round boundary: evidence now in the prev generation
  detector.on_gossip({ledger::make_labeled(tx, ledger::Label::kInvalid,
                                           CollectorId(0), collector_key)});
  EXPECT_EQ(metrics.equivocations_detected, 1u);
  EXPECT_EQ(evidence_fired, 1);
}

TEST_F(DetectorEdgeFixture, RepeatedGossipAcrossAgeOutPunishesAtMostOnce) {
  // The punished set outlives the evidence generations: replaying the same
  // proof in later rounds (even after the labels aged out) never compounds
  // the punishment.
  const auto tx = make_tx(1);
  const auto mine = ledger::make_labeled(tx, ledger::Label::kValid, CollectorId(0),
                                         collector_key);
  const auto theirs = ledger::make_labeled(tx, ledger::Label::kInvalid,
                                           CollectorId(0), collector_key);
  detector.note_label(tx.id(), mine);
  detector.on_gossip({theirs});
  ASSERT_EQ(metrics.equivocations_detected, 1u);
  const auto punished_score = table.forge(CollectorId(0));

  detector.age_out();
  detector.note_label(tx.id(), mine);  // evidence resurfaces in a later round
  detector.on_gossip({theirs});
  detector.on_gossip({theirs, theirs});
  EXPECT_EQ(metrics.equivocations_detected, 1u);
  EXPECT_EQ(table.forge(CollectorId(0)), punished_score);
  EXPECT_EQ(evidence_fired, 1);
}

TEST_F(DetectorEdgeFixture, GossipWithInvalidCollectorSignatureIgnored) {
  // A conflicting label whose collector signature does not verify is not
  // evidence — anyone could fabricate it.
  const auto tx = make_tx(1);
  detector.note_label(
      tx.id(), ledger::make_labeled(tx, ledger::Label::kValid, CollectorId(0),
                                    collector_key));
  auto forged = ledger::make_labeled(tx, ledger::Label::kInvalid, CollectorId(0),
                                     collector_key);
  forged.collector_sig.bytes[0] ^= 0xFF;
  detector.on_gossip({forged});
  EXPECT_EQ(metrics.equivocations_detected, 0u);
  EXPECT_EQ(table.forge(CollectorId(0)), 0);
  EXPECT_EQ(evidence_fired, 0);
}

TEST_F(DetectorEdgeFixture, TruncatedGossipPayloadIgnoredEvenWithValidPrefix) {
  // A payload that decodes some entries and then runs out of bytes must be
  // dropped whole — partially-applied gossip would make replicas diverge on
  // what they have seen.
  const auto tx = make_tx(1);
  detector.note_label(
      tx.id(), ledger::make_labeled(tx, ledger::Label::kValid, CollectorId(0),
                                    collector_key));
  protocol::EquivocationDetector peer(im, directory, table, metrics);
  peer.note_label(tx.id(),
                  ledger::make_labeled(tx, ledger::Label::kInvalid, CollectorId(0),
                                       collector_key));
  auto payload = detector.take_gossip_payload();
  ASSERT_TRUE(payload.has_value());
  payload->pop_back();  // truncate: the batch no longer parses to completion
  peer.on_gossip_payload(*payload);
  EXPECT_EQ(metrics.equivocations_detected, 0u);
}

TEST_F(DetectorEdgeFixture, ProposalFreshDuplicateConflictAndAtMostOnce) {
  const auto first = leader_block(1, 1);
  auto note = detector.note_proposal(first);
  EXPECT_TRUE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());

  note = detector.note_proposal(first);  // byte-identical duplicate: benign
  EXPECT_FALSE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());
  EXPECT_EQ(metrics.proposal_equivocations, 0u);

  const auto second = leader_block(1, 2);  // same serial, different content
  note = detector.note_proposal(second);
  EXPECT_FALSE(note.fresh);
  ASSERT_TRUE(note.conflict.has_value());
  EXPECT_EQ(note.conflict->hash(), first.hash());
  EXPECT_EQ(metrics.proposal_equivocations, 1u);
  EXPECT_TRUE(detector.proposal_conflicted(GovernorId(7), 1));
  EXPECT_EQ(evidence_fired, 1);

  // A third variant at the same serial: already punished, no new evidence.
  note = detector.note_proposal(leader_block(1, 3));
  EXPECT_FALSE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());
  EXPECT_EQ(metrics.proposal_equivocations, 1u);
  EXPECT_EQ(evidence_fired, 1);
}

TEST_F(DetectorEdgeFixture, ProposalWithBadLeaderSignatureIsNotEvidence) {
  auto block = leader_block(1, 1);
  block.leader_sig.bytes[0] ^= 0xFF;
  const auto note = detector.note_proposal(block);
  EXPECT_FALSE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());
  // The unsigned claim was not recorded either: the genuine block is fresh.
  EXPECT_TRUE(detector.note_proposal(leader_block(1, 1)).fresh);
}

TEST_F(DetectorEdgeFixture, ProposalConflictStraddlingOneAgeOutStillDetected) {
  ASSERT_TRUE(detector.note_proposal(leader_block(2, 2)).fresh);
  detector.age_out();
  const auto note = detector.note_proposal(leader_block(2, 3));
  ASSERT_TRUE(note.conflict.has_value());
  EXPECT_EQ(metrics.proposal_equivocations, 1u);
}

TEST_F(DetectorEdgeFixture, ProposalBeyondTwoGenerationsIsForgotten) {
  ASSERT_TRUE(detector.note_proposal(leader_block(2, 2)).fresh);
  detector.age_out();
  detector.age_out();  // both generations shifted: the record is gone
  const auto note = detector.note_proposal(leader_block(2, 3));
  EXPECT_TRUE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());
  EXPECT_EQ(metrics.proposal_equivocations, 0u);
}

TEST_F(DetectorEdgeFixture, OneGossipMessageSettlesItsConflictsInOrder) {
  // One message: a pair punished earlier, a forged conflicting label, a
  // copy equal to the local label, and two genuine conflicts (the second
  // repeated). Each pair is punished once, in message order.
  const crypto::SigningKey second_key(crypto::random_seed(rng));
  directory.add_collector(CollectorId(1), NodeId(2));
  im.enroll(NodeId(2), identity::Role::kCollector, second_key.public_key());
  table.register_collector(CollectorId(1));
  table.link(CollectorId(1), ProviderId(0));
  std::vector<std::pair<adversary::ByzantineKind, std::uint64_t>> calls;
  detector.set_evidence([&](adversary::ByzantineKind kind, std::uint64_t offender) {
    calls.emplace_back(kind, offender);
  });

  const auto labeled = [&](const ledger::Transaction& tx, ledger::Label label,
                           CollectorId c) {
    return ledger::make_labeled(tx, label, c,
                                c == CollectorId(0) ? collector_key : second_key);
  };
  std::vector<ledger::Transaction> txs;
  for (std::uint64_t seq = 0; seq < 5; ++seq) txs.push_back(make_tx(seq));
  const CollectorId owner[] = {CollectorId(0), CollectorId(0), CollectorId(0),
                               CollectorId(1), CollectorId(0)};
  for (std::size_t i = 0; i < txs.size(); ++i) {
    detector.note_label(txs[i].id(), labeled(txs[i], ledger::Label::kValid, owner[i]));
  }
  const auto conflict = [&](std::size_t i) {
    return labeled(txs[i], ledger::Label::kInvalid, owner[i]);
  };
  detector.on_gossip({conflict(0)});
  ASSERT_EQ(metrics.equivocations_detected, 1u);
  calls.clear();

  auto forged = conflict(1);
  forged.collector_sig.bytes[40] ^= 0x01;
  detector.on_gossip({conflict(0), forged, labeled(txs[2], ledger::Label::kValid, owner[2]),
                      conflict(4), conflict(3), conflict(3)});

  EXPECT_EQ(metrics.equivocations_detected, 3u);
  const std::vector<std::pair<adversary::ByzantineKind, std::uint64_t>> expected = {
      {adversary::ByzantineKind::kCollectorEquivocation, 0},
      {adversary::ByzantineKind::kCollectorEquivocation, 1}};
  EXPECT_EQ(calls, expected);
  reputation::ReputationTable reference{reputation::ReputationParams{}};
  reference.register_collector(CollectorId(0));
  reference.register_collector(CollectorId(1));
  reference.punish_forgery(CollectorId(0));
  reference.punish_forgery(CollectorId(0));
  reference.punish_forgery(CollectorId(1));
  EXPECT_EQ(table.forge(CollectorId(0)), reference.forge(CollectorId(0)));
  EXPECT_EQ(table.forge(CollectorId(1)), reference.forge(CollectorId(1)));

  // The forged label was no evidence: the genuine conflict still counts.
  detector.on_gossip({conflict(1)});
  EXPECT_EQ(metrics.equivocations_detected, 4u);
}

TEST_F(DetectorEdgeFixture, PunishedPairsAgeWithTheLabels) {
  // The punished set is held as long as the label that proved the conflict,
  // and no longer: a conflict noted afresh two rounds later counts again.
  const auto tx = make_tx(1);
  const auto mine = ledger::make_labeled(tx, ledger::Label::kValid, CollectorId(0),
                                         collector_key);
  const auto theirs = ledger::make_labeled(tx, ledger::Label::kInvalid,
                                           CollectorId(0), collector_key);
  detector.note_label(tx.id(), mine);
  detector.age_out();
  detector.on_gossip({theirs});  // local label held in the previous generation
  ASSERT_EQ(metrics.equivocations_detected, 1u);
  detector.age_out();
  detector.on_gossip({theirs});  // the label is gone: nothing to compare with
  EXPECT_EQ(metrics.equivocations_detected, 1u);
  detector.age_out();
  detector.note_label(tx.id(), mine);
  detector.on_gossip({theirs});
  EXPECT_EQ(metrics.equivocations_detected, 2u);
}

TEST_F(DetectorEdgeFixture, ProposalEchoCopyIsDuplicateAndAnyDifferenceIsChecked) {
  const auto tx = make_tx(1);
  const std::vector<ledger::TxRecord> txs = {ledger::TxRecord{tx}};
  const auto first =
      ledger::make_block(3, 3, crypto::Hash256{}, GovernorId(7), txs, leader_key);
  ASSERT_TRUE(detector.note_proposal(first).fresh);

  // An echo copy, decoded from the wire: a duplicate, as before.
  auto note = detector.note_proposal(ledger::Block::decode(first.encode()));
  EXPECT_FALSE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());

  // The same content under a broken signature is an unsigned claim.
  auto unsigned_copy = first;
  unsigned_copy.leader_sig.bytes[0] ^= 0x01;
  note = detector.note_proposal(unsigned_copy);
  EXPECT_FALSE(note.fresh);
  EXPECT_FALSE(note.conflict.has_value());
  EXPECT_EQ(metrics.proposal_equivocations, 0u);

  // A block that differs in one record's status at the same serial, signed
  // by the leader: a conflict.
  std::vector<ledger::TxRecord> other = txs;
  other[0].status = ledger::TxStatus::kUncheckedInvalid;
  other[0].label = ledger::Label::kInvalid;
  note = detector.note_proposal(
      ledger::make_block(3, 3, crypto::Hash256{}, GovernorId(7), other, leader_key));
  ASSERT_TRUE(note.conflict.has_value());
  EXPECT_EQ(note.conflict->hash(), first.hash());
  EXPECT_EQ(metrics.proposal_equivocations, 1u);
  EXPECT_EQ(evidence_fired, 1);
}

}  // namespace
}  // namespace repchain::sim
