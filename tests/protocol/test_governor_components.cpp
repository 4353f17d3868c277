// Unit tests for the components extracted from the Governor facade:
// BlockAssembler, ArgueService, StakeConsensus, EquivocationDetector, and
// the RoundTiming schedule derivation. These exercise the post-auth protocol
// logic directly, without a network or a full governor.
#include <gtest/gtest.h>

#include "crypto/keygen.hpp"
#include "ledger/chain.hpp"
#include "ledger/validation_oracle.hpp"
#include "net/network.hpp"
#include "protocol/argue_service.hpp"
#include "protocol/block_assembly.hpp"
#include "protocol/equivocation_detector.hpp"
#include "protocol/governor_types.hpp"
#include "protocol/messages.hpp"
#include "protocol/round_timing.hpp"
#include "protocol/stake_consensus.hpp"
#include "runtime/atomic_broadcast.hpp"
#include "runtime/delivery.hpp"
#include "runtime/node_context.hpp"

namespace repchain::protocol {
namespace {

using ledger::Label;
using ledger::TxStatus;

// --- BlockAssembler ----------------------------------------------------------

struct AssemblerFixture : ::testing::Test {
  Rng rng{4242};
  crypto::SigningKey provider_key{crypto::random_seed(rng)};
  crypto::SigningKey leader_key{crypto::random_seed(rng)};
  ledger::ChainStore chain;
  BlockAssembler assembler;

  ledger::TxRecord record(std::uint64_t seq) {
    ledger::TxRecord rec;
    rec.tx = ledger::make_transaction(ProviderId(0), seq, 0, rng.bytes(8),
                                      provider_key);
    rec.label = Label::kValid;
    rec.status = TxStatus::kCheckedValid;
    return rec;
  }
};

TEST_F(AssemblerFixture, ProposePacksFifoUpToLimitWithoutConsuming) {
  std::vector<ledger::TxRecord> recs;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    recs.push_back(record(s));
    assembler.add_pending(recs.back());
  }
  const ledger::Block block =
      assembler.propose(chain, 1, GovernorId(0), 2, leader_key);
  EXPECT_EQ(block.serial, 1u);
  EXPECT_EQ(block.round, 1u);
  EXPECT_EQ(block.prev_hash, chain.head_hash());
  ASSERT_EQ(block.txs.size(), 2u);
  EXPECT_EQ(block.txs[0].tx.id(), recs[0].tx.id());
  EXPECT_EQ(block.txs[1].tx.id(), recs[1].tx.id());
  EXPECT_EQ(block.tx_root, block.compute_tx_root());
  // Proposing must not consume: the proposal could be lost in transit.
  EXPECT_EQ(assembler.pending_count(), 3u);
}

TEST_F(AssemblerFixture, ReconcileDropsPackedRecordsAndMarksThem) {
  std::vector<ledger::TxRecord> recs;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    recs.push_back(record(s));
    assembler.add_pending(recs.back());
  }
  const ledger::Block block =
      assembler.propose(chain, 1, GovernorId(0), 2, leader_key);
  assembler.reconcile(block);
  EXPECT_EQ(assembler.pending_count(), 1u);
  EXPECT_TRUE(assembler.packed(recs[0].tx.id()));
  EXPECT_TRUE(assembler.packed(recs[1].tx.id()));
  EXPECT_FALSE(assembler.packed(recs[2].tx.id()));
  // The survivor is packed into the next block exactly once.
  chain.append(block);
  const ledger::Block next =
      assembler.propose(chain, 2, GovernorId(0), 10, leader_key);
  ASSERT_EQ(next.txs.size(), 1u);
  EXPECT_EQ(next.txs[0].tx.id(), recs[2].tx.id());
}

TEST_F(AssemblerFixture, ResetFromChainRebuildsPackedIndex) {
  assembler.add_pending(record(1));
  const ledger::Block block =
      assembler.propose(chain, 1, GovernorId(0), 10, leader_key);
  chain.append(block);

  BlockAssembler fresh;
  fresh.add_pending(record(99));  // transient, dropped on restore
  fresh.reset_from_chain(chain);
  EXPECT_EQ(fresh.pending_count(), 0u);
  EXPECT_TRUE(fresh.packed(block.txs[0].tx.id()));
}

// --- ArgueService ------------------------------------------------------------

struct ArgueFixture : ::testing::Test {
  ArgueFixture() {
    table.register_collector(CollectorId(0));
    table.link(CollectorId(0), ProviderId(0));
  }

  ledger::Transaction make_tx(std::uint64_t seq, bool truly_valid) {
    auto tx =
        ledger::make_transaction(ProviderId(0), seq, 0, rng.bytes(8), key);
    oracle.register_tx(tx.id(), truly_valid);
    return tx;
  }

  std::vector<reputation::Report> reports() {
    return {reputation::Report{CollectorId(0), Label::kInvalid}};
  }

  Rng rng{777};
  reputation::ReputationTable table{reputation::ReputationParams{}};
  ledger::ValidationOracle oracle{0};
  GovernorMetrics metrics;
  ArgueService argues{table, oracle, metrics, /*argue_latency_u=*/2};
  crypto::SigningKey key{crypto::random_seed(rng)};
};

TEST_F(ArgueFixture, ArgueOnTrulyValidTxYieldsArguedRecord) {
  const auto tx = make_tx(1, true);
  argues.record_unchecked(tx, tx.id(), reports());
  EXPECT_TRUE(argues.known(tx.id()));
  EXPECT_EQ(argues.unrevealed().size(), 1u);

  const auto rec = argues.handle_argue(make_argue(ProviderId(0), tx, 1, key));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, TxStatus::kArguedValid);
  EXPECT_EQ(rec->tx.id(), tx.id());
  EXPECT_EQ(metrics.argues_accepted, 1u);
  EXPECT_EQ(metrics.argue_validations, 1u);
  EXPECT_EQ(metrics.mistakes, 1u);  // unchecked truth was valid
  EXPECT_TRUE(argues.unrevealed().empty());
}

TEST_F(ArgueFixture, ArgueOnTrulyInvalidTxRevealsButAppendsNothing) {
  const auto tx = make_tx(1, false);
  argues.record_unchecked(tx, tx.id(), reports());
  const auto rec = argues.handle_argue(make_argue(ProviderId(0), tx, 1, key));
  EXPECT_FALSE(rec.has_value());
  EXPECT_EQ(metrics.argues_accepted, 1u);
  EXPECT_EQ(metrics.mistakes, 0u);
  EXPECT_TRUE(argues.unrevealed().empty());  // revealed by the re-validation
}

TEST_F(ArgueFixture, ArgueBuriedDeeperThanUIsRejectedLate) {
  const auto tx = make_tx(1, true);
  argues.record_unchecked(tx, tx.id(), reports());
  // Bury beyond U = 2 with newer unchecked txs from the same provider.
  for (std::uint64_t s = 2; s <= 4; ++s) {
    const auto newer = make_tx(s, false);
    argues.record_unchecked(newer, newer.id(), reports());
  }
  const auto rec = argues.handle_argue(make_argue(ProviderId(0), tx, 1, key));
  EXPECT_FALSE(rec.has_value());
  EXPECT_EQ(metrics.argues_rejected_late, 1u);
  EXPECT_EQ(metrics.argues_accepted, 0u);
}

TEST_F(ArgueFixture, RevealIsIdempotentAndBlocksLaterArgues) {
  const auto tx = make_tx(1, true);
  argues.record_unchecked(tx, tx.id(), reports());
  EXPECT_TRUE(argues.reveal(tx.id()));
  EXPECT_FALSE(argues.reveal(tx.id()));
  EXPECT_EQ(metrics.mistakes, 1u);
  // An argue after the audit reveal is a no-op.
  EXPECT_FALSE(argues.handle_argue(make_argue(ProviderId(0), tx, 1, key)));
  EXPECT_EQ(metrics.argues_accepted, 0u);
}

TEST_F(ArgueFixture, ResetTransientDropsSnapshotsAndArgueWindow) {
  const auto tx = make_tx(1, true);
  argues.record_unchecked(tx, tx.id(), reports());
  argues.reset_transient();
  EXPECT_FALSE(argues.known(tx.id()));
  EXPECT_TRUE(argues.unrevealed().empty());
  // The argue-latency buffer resets with the entries: its burial positions
  // are meaningless once the snapshots they index are gone (checkpointed
  // entries come back via restore_entries, which rebuilds the buffer).
  EXPECT_FALSE(argues.buffer().arguable(ProviderId(0), tx.id()));
}

TEST_F(ArgueFixture, RestoreEntriesReopensArgueWindowsInScreeningOrder) {
  const auto tx1 = make_tx(1, true);
  const auto tx2 = make_tx(2, false);
  const auto tx3 = make_tx(3, true);
  argues.record_unchecked(tx1, tx1.id(), reports());
  argues.record_unchecked(tx2, tx2.id(), reports());
  argues.record_unchecked(tx3, tx3.id(), reports());
  EXPECT_TRUE(argues.reveal(tx2.id()));

  // Round-trip through the checkpoint representation: copy the entries out
  // in order and reinstall them on a fresh reset.
  std::vector<UncheckedEntry> copied;
  for (const UncheckedEntry* e : argues.entries_in_order()) copied.push_back(*e);
  ASSERT_EQ(copied.size(), 3u);
  argues.restore_entries(std::move(copied));

  EXPECT_TRUE(argues.known(tx1.id()));
  const auto pending = argues.unrevealed();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], tx1.id());  // screening order preserved
  EXPECT_EQ(pending[1], tx3.id());
  // Unrevealed entries are arguable again; the revealed one is consumed.
  EXPECT_TRUE(argues.buffer().arguable(ProviderId(0), tx1.id()));
  EXPECT_FALSE(argues.buffer().arguable(ProviderId(0), tx2.id()));
  // And an argue still works end-to-end after the restore (case 3 fires).
  const auto rec = argues.handle_argue(make_argue(ProviderId(0), tx1, 1, key));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->status, TxStatus::kArguedValid);
}

// --- StakeConsensus ----------------------------------------------------------

struct StakeFixture : ::testing::Test {
  StakeFixture() {
    const NodeId n0 = net.add_node();
    directory.add_governor(GovernorId(0), n0);
    im.enroll(n0, identity::Role::kGovernor, key.public_key());
    genesis.set(GovernorId(0), 5);
    genesis.set(GovernorId(1), 1);
    group = std::make_unique<runtime::AtomicBroadcastGroup>(
        net, std::vector<NodeId>{n0});
    ctx = std::make_unique<runtime::NodeContext>(n0, net, Rng(33));
    out = std::make_unique<runtime::Delivery>(*ctx, *group, /*reliable=*/false,
                                              /*epoch=*/0,
                                              [](const runtime::Message&) {});
    sc = make_consensus();
  }

  std::unique_ptr<StakeConsensus> make_consensus() {
    return std::make_unique<StakeConsensus>(GovernorId(0), key, im, directory, *out,
                                            genesis);
  }

  Rng rng{31};
  runtime::EventLoop queue;
  net::SimNetwork net{queue, Rng(32), net::LatencyModel{1 * kMillisecond,
                                                        2 * kMillisecond}};
  identity::IdentityManager im{crypto::random_seed(rng)};
  Directory directory;
  crypto::SigningKey key{crypto::random_seed(rng)};
  StakeLedger genesis;
  std::unique_ptr<runtime::AtomicBroadcastGroup> group;
  std::unique_ptr<runtime::NodeContext> ctx;
  std::unique_ptr<runtime::Delivery> out;
  std::unique_ptr<StakeConsensus> sc;
};

TEST_F(StakeFixture, ExpectedStateAppliesTransfersWithoutCommitting) {
  sc->on_stake_tx(make_stake_tx(GovernorId(0), GovernorId(1), 2, 1, key));
  EXPECT_TRUE(sc->has_pending_transfers());
  const StakeLedger expected = sc->expected_state();
  EXPECT_EQ(expected.of(GovernorId(0)), 3u);
  EXPECT_EQ(expected.of(GovernorId(1)), 3u);
  // The committed ledger only moves in step 3.
  EXPECT_EQ(sc->stake().of(GovernorId(0)), 5u);
}

TEST_F(StakeFixture, ReplayedTransferIsIgnored) {
  const auto stx = make_stake_tx(GovernorId(0), GovernorId(1), 2, 1, key);
  sc->on_stake_tx(stx);
  sc->on_stake_tx(stx);  // same sender sequence: replay
  EXPECT_EQ(sc->expected_state().of(GovernorId(1)), 3u);
}

TEST_F(StakeFixture, ArrivalOrderDoesNotChangeTheDerivedState) {
  // Governor 1 holds 1 unit: its transfer of 3 overdraws unless governor
  // 0's transfer of 4 is applied first. Two governors receiving the pair in
  // opposite orders must still derive the same NEW_STATE.
  const StakeTxMsg pay = make_stake_tx(GovernorId(0), GovernorId(1), 4, 0, key);
  const StakeTxMsg repay = make_stake_tx(GovernorId(1), GovernorId(0), 3, 0, key);
  const auto reversed = make_consensus();
  sc->on_stake_tx(pay);
  sc->on_stake_tx(repay);
  reversed->on_stake_tx(repay);
  reversed->on_stake_tx(pay);
  EXPECT_EQ(sc->expected_state(), reversed->expected_state());
  EXPECT_EQ(reversed->expected_state().of(GovernorId(0)), 4u);
  EXPECT_EQ(reversed->expected_state().of(GovernorId(1)), 2u);
}

TEST_F(StakeFixture, MatchesExpectedChecksRoundAndState) {
  sc->on_stake_tx(make_stake_tx(GovernorId(0), GovernorId(1), 2, 1, key));
  StateProposalMsg proposal;
  proposal.round = 7;
  proposal.leader = GovernorId(1);
  proposal.state = sc->expected_state().encode();
  EXPECT_TRUE(sc->matches_expected(proposal, 7));
  EXPECT_FALSE(sc->matches_expected(proposal, 8));
  proposal.state = sc->stake().encode();  // stale state
  EXPECT_FALSE(sc->matches_expected(proposal, 7));
}

// --- EquivocationDetector ----------------------------------------------------

struct EquivocationFixture : ::testing::Test {
  EquivocationFixture() {
    const NodeId n = NodeId(0);
    directory.add_collector(CollectorId(0), n);
    im.enroll(n, identity::Role::kCollector, collector_key.public_key());
    table.register_collector(CollectorId(0));
    table.link(CollectorId(0), ProviderId(0));
  }

  ledger::Transaction make_tx(std::uint64_t seq) {
    return ledger::make_transaction(ProviderId(0), seq, 0, rng.bytes(8),
                                    provider_key);
  }

  Rng rng{55};
  identity::IdentityManager im{crypto::random_seed(rng)};
  Directory directory;
  reputation::ReputationTable table{reputation::ReputationParams{}};
  GovernorMetrics metrics;
  crypto::SigningKey provider_key{crypto::random_seed(rng)};
  crypto::SigningKey collector_key{crypto::random_seed(rng)};
  EquivocationDetector detector{im, directory, table, metrics};
};

TEST_F(EquivocationFixture, ConflictingLabelsPunishedOncePerTx) {
  const auto tx = make_tx(1);
  const auto mine =
      ledger::make_labeled(tx, Label::kValid, CollectorId(0), collector_key);
  const auto theirs =
      ledger::make_labeled(tx, Label::kInvalid, CollectorId(0), collector_key);
  detector.note_label(tx.id(), mine);
  detector.on_gossip({theirs});
  EXPECT_EQ(metrics.equivocations_detected, 1u);
  detector.on_gossip({theirs});  // same evidence again: no double punishment
  EXPECT_EQ(metrics.equivocations_detected, 1u);
}

TEST_F(EquivocationFixture, GossipPayloadRoundTripsAndDrains) {
  const auto tx = make_tx(1);
  detector.note_label(tx.id(), ledger::make_labeled(tx, Label::kValid,
                                                    CollectorId(0),
                                                    collector_key));
  const auto payload = detector.take_gossip_payload();
  ASSERT_TRUE(payload.has_value());
  EXPECT_FALSE(detector.take_gossip_payload().has_value());  // drained

  // A peer holding the conflicting label detects through the payload path.
  EquivocationDetector peer(im, directory, table, metrics);
  peer.note_label(tx.id(), ledger::make_labeled(tx, Label::kInvalid,
                                                CollectorId(0), collector_key));
  peer.on_gossip_payload(*payload);
  EXPECT_EQ(metrics.equivocations_detected, 1u);
}

TEST_F(EquivocationFixture, MalformedGossipPayloadIgnored) {
  detector.on_gossip_payload(Bytes{0xde, 0xad, 0xbe});
  EXPECT_EQ(metrics.equivocations_detected, 0u);
}

TEST_F(EquivocationFixture, EvidenceAgesOutAfterTwoGenerations) {
  const auto tx = make_tx(1);
  detector.note_label(tx.id(), ledger::make_labeled(tx, Label::kValid,
                                                    CollectorId(0),
                                                    collector_key));
  detector.age_out();
  detector.age_out();  // label now beyond the two-generation window
  const auto theirs =
      ledger::make_labeled(tx, Label::kInvalid, CollectorId(0), collector_key);
  detector.on_gossip({theirs});
  EXPECT_EQ(metrics.equivocations_detected, 0u);
}

// --- RoundTiming -------------------------------------------------------------

TEST(RoundTiming, DeadlinesStrictlyIncrease) {
  const SimDuration delta = 10 * kMillisecond;
  const auto t = RoundTiming::derive(delta, 5 * kMillisecond, 30 * kMillisecond,
                                     /*label_gossip=*/false);
  EXPECT_EQ(t.election_offset, 0u);
  EXPECT_LT(t.election_offset, t.workload_offset);
  EXPECT_LT(t.workload_offset + t.workload_span, t.gossip_offset);
  EXPECT_LE(t.gossip_offset, t.propose_offset);
  EXPECT_LT(t.propose_offset, t.rewards_offset);
  EXPECT_LT(t.rewards_offset, t.sync_offset);
  EXPECT_LT(t.sync_offset, t.stake_offset);
  EXPECT_LT(t.stake_offset, t.audit_offset);
  EXPECT_LT(t.audit_offset, t.round_span);
}

TEST(RoundTiming, GossipWindowOnlyWhenExtensionEnabled) {
  const SimDuration delta = 10 * kMillisecond;
  const auto off = RoundTiming::derive(delta, 5 * kMillisecond,
                                       30 * kMillisecond, false);
  const auto on = RoundTiming::derive(delta, 5 * kMillisecond,
                                      30 * kMillisecond, true);
  EXPECT_EQ(off.propose_offset, off.gossip_offset);
  EXPECT_EQ(on.propose_offset, on.gossip_offset + 2 * delta);
  EXPECT_EQ(on.round_span - on.audit_offset, off.round_span - off.audit_offset);
}

TEST(RoundTiming, PhaseBudgetsScaleWithDelta) {
  // Every phase budget is keyed to the synchrony bound: doubling Delta must
  // never shrink any offset.
  const auto a = RoundTiming::derive(5 * kMillisecond, 5 * kMillisecond,
                                     20 * kMillisecond, true);
  const auto b = RoundTiming::derive(10 * kMillisecond, 5 * kMillisecond,
                                     20 * kMillisecond, true);
  EXPECT_LT(a.workload_offset, b.workload_offset);
  EXPECT_LT(a.gossip_offset, b.gossip_offset);
  EXPECT_LT(a.stake_offset, b.stake_offset);
  EXPECT_LT(a.round_span, b.round_span);
}

}  // namespace
}  // namespace repchain::protocol
