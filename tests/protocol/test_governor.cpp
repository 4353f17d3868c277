// Surgical message-level tests of Governor: crafted (possibly malicious)
// payloads injected directly through on_message, bypassing the scenario
// runner, to pin down each verification and rejection path of Algorithm 2
// and the consensus steps.
#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "runtime/atomic_broadcast.hpp"
#include "common/errors.hpp"
#include "common/serial.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/keygen.hpp"
#include "net/network.hpp"
#include "protocol/governor.hpp"
#include "protocol/provider.hpp"
#include "sim/topology.hpp"

namespace repchain::protocol {
namespace {

using ledger::Label;

/// Hand-wired world: 2 providers, 2 collectors (both linked to both
/// providers), 2 governors.
struct World {
  explicit World(GovernorConfig config = {})
      : rng(12345),
        net(queue, rng.derive(1), net::LatencyModel{1 * kMillisecond, 2 * kMillisecond}),
        im(crypto::random_seed(rng)),
        oracle(0) {
    for (int i = 0; i < 2; ++i) {
      provider_keys.emplace_back(crypto::random_seed(rng));
      const NodeId node = net.add_node();
      directory.add_provider(ProviderId(i), node);
      im.enroll(node, identity::Role::kProvider, provider_keys.back().public_key());
    }
    for (int i = 0; i < 2; ++i) {
      collector_keys.emplace_back(crypto::random_seed(rng));
      const NodeId node = net.add_node();
      directory.add_collector(CollectorId(i), node);
      im.enroll(node, identity::Role::kCollector, collector_keys.back().public_key());
      directory.link(ProviderId(0), CollectorId(i));
      directory.link(ProviderId(1), CollectorId(i));
    }
    for (int i = 0; i < 2; ++i) {
      governor_keys.emplace_back(crypto::random_seed(rng));
      const NodeId node = net.add_node();
      directory.add_governor(GovernorId(i), node);
      im.enroll(node, identity::Role::kGovernor, governor_keys.back().public_key());
    }
    group = std::make_unique<runtime::AtomicBroadcastGroup>(net,
                                                            directory.governor_nodes());

    StakeLedger genesis;
    genesis.set(GovernorId(0), 1);
    genesis.set(GovernorId(1), 1);

    config.aggregation_delta = 5 * kMillisecond;
    for (int i = 0; i < 2; ++i) {
      contexts.emplace_back(directory.node_of(GovernorId(i)), net,
                            rng.derive(100 + i));
      governors.emplace_back(GovernorId(i), contexts.back(),
                             crypto::SigningKey(governor_keys[i]), im, oracle,
                             directory, *group, config, genesis);
      const std::size_t idx = governors.size() - 1;
      net.set_handler(directory.node_of(GovernorId(i)),
                      [this, idx](const net::Message& m) {
                        governors[idx].on_message(m);
                      });
    }
  }

  ledger::Transaction make_tx(std::uint32_t provider, std::uint64_t seq, bool valid) {
    auto tx = ledger::make_transaction(ProviderId(provider), seq, seq * 10,
                                       to_bytes("payload"), provider_keys[provider]);
    oracle.register_tx(tx.id(), valid);
    return tx;
  }

  /// Inject an upload into governor 0 without draining the instant, so a
  /// burst of calls lands in one verification batch.
  void inject(const ledger::LabeledTransaction& ltx) {
    net::Message msg;
    msg.from = directory.node_of(ltx.collector);
    msg.to = directory.node_of(GovernorId(0));
    msg.kind = net::MsgKind::kCollectorUpload;
    msg.payload = ltx.encode();
    governors[0].on_message(msg);
  }

  /// Inject an upload directly into governor 0.
  void upload(const ledger::LabeledTransaction& ltx) {
    inject(ltx);
    // Batched intake settles signature checks on a same-instant flush
    // timer; drain the current instant so verdicts (and metrics) land
    // before the caller's assertions, without advancing simulated time.
    queue.run_until(queue.now());
  }

  void settle() { queue.run(); }

  runtime::EventLoop queue;
  Rng rng;
  net::SimNetwork net;
  identity::IdentityManager im;
  ledger::ValidationOracle oracle;
  Directory directory;
  std::unique_ptr<runtime::AtomicBroadcastGroup> group;
  std::vector<crypto::SigningKey> provider_keys;
  std::vector<crypto::SigningKey> collector_keys;
  std::vector<crypto::SigningKey> governor_keys;
  std::deque<runtime::NodeContext> contexts;
  std::deque<Governor> governors;
};

// Reconstruct a SigningKey (copyable helper for the fixture).
crypto::SigningKey copy_key(const crypto::SigningKey& k) { return k; }

TEST(GovernorUpload, ValidUploadScreensIntoPending) {
  World w;
  const auto tx = w.make_tx(0, 1, true);
  w.upload(ledger::make_labeled(tx, Label::kValid, CollectorId(0), w.collector_keys[0]));
  w.settle();  // aggregation timer fires -> screening
  EXPECT_EQ(w.governors[0].pending_txs(), 1u);
  EXPECT_EQ(w.governors[0].screening_stats().appended_valid, 1u);
  EXPECT_EQ(w.governors[0].metrics().uploads_received, 1u);
}

TEST(GovernorUpload, GarbagePayloadRejected) {
  World w;
  net::Message msg;
  msg.from = w.directory.node_of(CollectorId(0));
  msg.to = w.directory.node_of(GovernorId(0));
  msg.kind = net::MsgKind::kCollectorUpload;
  msg.payload = to_bytes("not a labeled transaction");
  w.governors[0].on_message(msg);
  EXPECT_EQ(w.governors[0].metrics().uploads_rejected, 1u);
  EXPECT_EQ(w.governors[0].pending_txs(), 0u);
}

TEST(GovernorUpload, BadCollectorSignatureRejectedSilently) {
  World w;
  const auto tx = w.make_tx(0, 1, true);
  // Signed with the *other* collector's key but claiming collector 0.
  auto ltx = ledger::make_labeled(tx, Label::kValid, CollectorId(0), w.collector_keys[1]);
  w.upload(ltx);
  w.settle();
  EXPECT_EQ(w.governors[0].metrics().uploads_rejected, 1u);
  // Not attributable: no forgery punishment.
  EXPECT_EQ(w.governors[0].reputation().forge(CollectorId(0)), 0);
}

TEST(GovernorUpload, ForgedProviderSignaturePunished) {
  World w;
  // Collector fabricates a transaction with a garbage provider signature.
  ledger::Transaction fake;
  fake.provider = ProviderId(0);
  fake.seq = 99;
  fake.timestamp = 1;
  fake.payload = to_bytes("fabricated");
  // default (all-zero) provider_sig is invalid
  const auto ltx =
      ledger::make_labeled(fake, Label::kValid, CollectorId(0), w.collector_keys[0]);
  w.upload(ltx);
  EXPECT_EQ(w.governors[0].metrics().forgeries_detected, 1u);
  EXPECT_EQ(w.governors[0].reputation().forge(CollectorId(0)), -1);
  EXPECT_EQ(w.governors[0].pending_txs(), 0u);
}

TEST(GovernorUpload, ForgedSignatureInsideBatchMatchesSingleVerify) {
  // Regression for the batched intake: a same-instant burst carrying two
  // genuine uploads and one forged-provider-signature upload must isolate
  // and punish exactly the bad item — the verdicts crypto::verify gives each
  // signature on its own.
  World w;
  const auto good = w.make_tx(0, 1, true);
  ledger::Transaction fake;
  fake.provider = ProviderId(1);
  fake.seq = 99;
  fake.timestamp = 1;
  fake.payload = to_bytes("fabricated");  // all-zero provider sig: forged
  // One instant, one batch: genuine report from each collector plus the
  // forgery from collector 1.
  const std::vector<ledger::LabeledTransaction> burst = {
      ledger::make_labeled(good, Label::kValid, CollectorId(0), w.collector_keys[0]),
      ledger::make_labeled(fake, Label::kValid, CollectorId(1), w.collector_keys[1]),
      ledger::make_labeled(good, Label::kValid, CollectorId(1), w.collector_keys[1]),
  };

  // Single-verify reference: a bad collector signature rejects the upload,
  // a bad provider signature inside it is a forgery.
  std::uint64_t rejected = 0;
  std::uint64_t forgeries = 0;
  for (const auto& ltx : burst) {
    if (!crypto::verify(w.collector_keys[ltx.collector.value()].public_key(),
                        ltx.signed_preimage(), ltx.collector_sig)) {
      ++rejected;
    } else if (!crypto::verify(w.provider_keys[ltx.tx.provider.value()].public_key(),
                               ltx.tx.signed_preimage(), ltx.tx.provider_sig)) {
      ++forgeries;
    }
  }

  for (const auto& ltx : burst) w.inject(ltx);
  w.queue.run_until(w.queue.now());
  w.settle();
  const auto& g = w.governors[0];
  EXPECT_EQ(g.metrics().uploads_received, burst.size());
  EXPECT_EQ(g.metrics().uploads_rejected, rejected);
  EXPECT_EQ(g.metrics().forgeries_detected, forgeries);

  // And the absolute outcome is the expected one: only collector 1 punished,
  // only the genuine transaction pending.
  EXPECT_EQ(forgeries, 1u);
  EXPECT_EQ(g.reputation().forge(CollectorId(0)), 0);
  EXPECT_EQ(g.reputation().forge(CollectorId(1)), -1);
  EXPECT_EQ(g.pending_txs(), 1u);
}

TEST(GovernorUpload, TamperedCollectorSignatureInsideBatchRejected) {
  // The batch's other failure class: an upload whose *collector* signature
  // does not verify is unattributable and must be dropped (rejected, no
  // punishment) while its batch-mates proceed.
  World w;
  const auto tx = w.make_tx(0, 1, true);
  auto bad = ledger::make_labeled(tx, Label::kValid, CollectorId(1),
                                  w.collector_keys[1]);
  bad.collector_sig.bytes[0] ^= 0x01;
  w.inject(ledger::make_labeled(tx, Label::kValid, CollectorId(0),
                                w.collector_keys[0]));
  w.inject(bad);
  w.queue.run_until(w.queue.now());
  w.settle();
  const auto& g = w.governors[0];
  EXPECT_EQ(g.metrics().uploads_rejected, 1u);
  EXPECT_EQ(g.metrics().forgeries_detected, 0u);
  EXPECT_EQ(g.reputation().forge(CollectorId(1)), 0);
  EXPECT_EQ(g.pending_txs(), 1u);
}

TEST(GovernorUpload, UnlinkedProviderCountsAsForgery) {
  World w;
  // A genuine signature from provider 0, but uploaded by a collector that
  // is not linked with it: build a third collector with no links.
  const auto key = crypto::SigningKey(crypto::random_seed(w.rng));
  const NodeId node = w.net.add_node();
  w.directory.add_collector(CollectorId(2), node);
  w.im.enroll(node, identity::Role::kCollector, key.public_key());
  // Governor tables were built at construction; the new collector is
  // unknown there, so the forgery punishment throws internally... instead
  // verify the path for a linked-but-wrong-provider case:
  const auto tx = w.make_tx(1, 5, true);
  ledger::Transaction cross = tx;
  // Tamper provider id: signature no longer matches claimed provider 0.
  cross.provider = ProviderId(0);
  const auto ltx =
      ledger::make_labeled(cross, Label::kValid, CollectorId(0), w.collector_keys[0]);
  w.upload(ltx);
  EXPECT_EQ(w.governors[0].metrics().forgeries_detected, 1u);
}

TEST(GovernorUpload, DuplicateReportIgnored) {
  World w;
  const auto tx = w.make_tx(0, 1, true);
  const auto ltx =
      ledger::make_labeled(tx, Label::kValid, CollectorId(0), w.collector_keys[0]);
  w.upload(ltx);
  w.upload(ltx);
  EXPECT_EQ(w.governors[0].metrics().duplicate_reports, 1u);
  w.settle();
  EXPECT_EQ(w.governors[0].screening_stats().screened, 1u);
}

TEST(GovernorUpload, ReplayAfterScreeningIgnored) {
  World w;
  const auto tx = w.make_tx(0, 1, true);
  const auto ltx =
      ledger::make_labeled(tx, Label::kValid, CollectorId(0), w.collector_keys[0]);
  w.upload(ltx);
  w.settle();
  ASSERT_EQ(w.governors[0].screening_stats().screened, 1u);
  // A later replay of the same transaction must not re-enter screening, even
  // from a different collector with a different label: the intake remembers
  // every screened id, so a retransmitted upload arriving after the decision
  // (reliable-channel redelivery, duplication faults) cannot reopen an
  // aggregation window for an already-decided transaction.
  const auto ltx2 =
      ledger::make_labeled(tx, Label::kInvalid, CollectorId(1), w.collector_keys[1]);
  w.upload(ltx2);
  w.settle();
  EXPECT_EQ(w.governors[0].screening_stats().screened, 1u);  // no re-screening
}

TEST(GovernorUpload, MultipleReportsAggregateWithinDelta) {
  World w;
  const auto tx = w.make_tx(0, 1, false);
  w.upload(ledger::make_labeled(tx, Label::kInvalid, CollectorId(0), w.collector_keys[0]));
  w.upload(ledger::make_labeled(tx, Label::kInvalid, CollectorId(1), w.collector_keys[1]));
  w.settle();
  EXPECT_EQ(w.governors[0].screening_stats().screened, 1u);
  // Both collectors labeled the (invalid) tx correctly; if it was checked
  // both earn +1 misreport, if unchecked both stay 0.
  const auto m0 = w.governors[0].reputation().misreport(CollectorId(0));
  const auto m1 = w.governors[0].reputation().misreport(CollectorId(1));
  EXPECT_EQ(m0, m1);
  EXPECT_GE(m0, 0);
}

TEST(GovernorArgue, BadArgueSignatureIgnored) {
  World w;
  const auto tx = w.make_tx(0, 1, true);
  ArgueMsg argue = make_argue(ProviderId(0), tx, 1, w.provider_keys[1]);  // wrong key
  net::Message msg;
  msg.from = w.directory.node_of(ProviderId(0));
  msg.to = w.directory.node_of(GovernorId(0));
  msg.kind = net::MsgKind::kArgue;
  msg.payload = argue.encode();
  w.governors[0].on_message(msg);
  EXPECT_EQ(w.governors[0].metrics().argues_received, 1u);
  EXPECT_EQ(w.governors[0].metrics().argues_accepted, 0u);
}

TEST(GovernorArgue, ArgueForUnknownTxIgnored) {
  World w;
  const auto tx = w.make_tx(0, 1, true);
  ArgueMsg argue = make_argue(ProviderId(0), tx, 1, w.provider_keys[0]);
  net::Message msg;
  msg.from = w.directory.node_of(ProviderId(0));
  msg.to = w.directory.node_of(GovernorId(0));
  msg.kind = net::MsgKind::kArgue;
  msg.payload = argue.encode();
  w.governors[0].on_message(msg);
  EXPECT_EQ(w.governors[0].metrics().argues_accepted, 0u);
}

TEST(GovernorBlocks, ForeignLeaderProposalRejected) {
  World w;
  // Run an election so both governors agree on the winner.
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  const auto winner = w.governors[0].round_leader();
  ASSERT_TRUE(winner.has_value());
  const GovernorId loser(winner->value() == 0 ? 1 : 0);

  // The loser forges a block proposal.
  const ledger::Block block = ledger::make_block(
      1, 1, crypto::Hash256{}, loser, {}, w.governor_keys[loser.value()]);
  net::Message msg;
  msg.from = w.directory.node_of(loser);
  msg.to = w.directory.node_of(GovernorId(0));
  msg.kind = net::MsgKind::kBlockProposal;
  msg.payload = block.encode();
  w.governors[0].on_message(msg);
  // A non-winner proposal is never adopted; it is held until the end of the
  // round (the winner view may still converge under faults) and definitively
  // rejected when the next round begins.
  EXPECT_EQ(w.governors[0].chain().height(), 0u);
  EXPECT_EQ(w.governors[0].metrics().blocks_accepted, 0u);
  w.governors[0].begin_round(2);
  EXPECT_EQ(w.governors[0].metrics().blocks_rejected, 1u);
  EXPECT_EQ(w.governors[0].chain().height(), 0u);
}

TEST(GovernorBlocks, LegitimateLeaderProposalAccepted) {
  World w;
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  w.governors[0].propose_if_leader();
  w.governors[1].propose_if_leader();
  w.settle();
  EXPECT_EQ(w.governors[0].chain().height(), 1u);
  EXPECT_EQ(w.governors[1].chain().height(), 1u);
  EXPECT_EQ(w.governors[0].chain().head_hash(), w.governors[1].chain().head_hash());
  EXPECT_EQ(w.governors[0].metrics().blocks_accepted, 1u);
}

TEST(GovernorBlocks, WrongSerialFromRealLeaderRejected) {
  World w;
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  const auto winner = *w.governors[0].round_leader();
  // The real leader proposes a block skipping to serial 3. The receiver
  // first assumes it is the one behind and asks its peer for the missing
  // prefix; the peer has nothing above height 0, so once that sync settles
  // the unadoptable proposal is rejected.
  const ledger::Block block = ledger::make_block(
      3, 1, crypto::Hash256{}, winner, {}, w.governor_keys[winner.value()]);
  net::Message msg;
  msg.from = w.directory.node_of(winner);
  msg.to = w.directory.node_of(GovernorId(0));
  msg.kind = net::MsgKind::kBlockProposal;
  msg.payload = block.encode();
  w.governors[0].on_message(msg);
  w.settle();
  EXPECT_EQ(w.governors[0].metrics().blocks_rejected, 1u);
  EXPECT_EQ(w.governors[0].chain().height(), 0u);
}

TEST(GovernorElection, AgreesAcrossGovernors) {
  World w;
  for (Round r = 1; r <= 5; ++r) {
    w.governors[0].begin_round(r);
    w.governors[1].begin_round(r);
    w.settle();
    ASSERT_TRUE(w.governors[0].round_leader().has_value());
    EXPECT_EQ(w.governors[0].round_leader(), w.governors[1].round_leader());
  }
}

TEST(GovernorStake, ReplayedTransferAppliesOnce) {
  World w;
  // Governor 1 signs one transfer of 1 unit to governor 0 (seq 0); a
  // byzantine relay replays the identical signed message.
  const StakeTxMsg stx = make_stake_tx(GovernorId(1), GovernorId(0), 1, 0,
                                       w.governor_keys[1]);
  for (int copy = 0; copy < 3; ++copy) {
    for (auto& g : w.governors) {
      net::Message msg;
      msg.from = w.directory.node_of(GovernorId(1));
      msg.to = g.node();
      msg.kind = net::MsgKind::kStakeTx;
      msg.payload = stx.encode();
      g.on_message(msg);
    }
  }
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  for (auto& g : w.governors) g.run_stake_consensus_if_leader();
  w.settle();

  for (auto& g : w.governors) {
    EXPECT_EQ(g.stake().of(GovernorId(0)), 2u);  // 1 + one transfer, not three
    EXPECT_EQ(g.stake().of(GovernorId(1)), 0u);
  }
}

TEST(GovernorStake, DistinctSequencesAllApply) {
  World w;
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    const StakeTxMsg stx = make_stake_tx(GovernorId(1), GovernorId(0), 1, seq,
                                         w.governor_keys[1]);
    // Governor 1 only holds 1 unit, so the second transfer is skipped as
    // insufficient — but both are *accepted* into the round (no replay).
    for (auto& g : w.governors) {
      net::Message msg;
      msg.from = w.directory.node_of(GovernorId(1));
      msg.to = g.node();
      msg.kind = net::MsgKind::kStakeTx;
      msg.payload = stx.encode();
      g.on_message(msg);
    }
  }
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  for (auto& g : w.governors) g.run_stake_consensus_if_leader();
  w.settle();
  for (auto& g : w.governors) {
    EXPECT_EQ(g.stake().of(GovernorId(0)), 2u);
    EXPECT_EQ(g.stake().of(GovernorId(1)), 0u);
  }
}

TEST(GovernorCheckpoint, RoundTripRestoresDurableState) {
  World w;
  // Build some durable state: one block plus reputation movement.
  const auto tx = w.make_tx(0, 1, true);
  w.upload(ledger::make_labeled(tx, Label::kValid, CollectorId(0), w.collector_keys[0]));
  w.settle();
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  w.governors[0].propose_if_leader();
  w.governors[1].propose_if_leader();
  w.settle();
  ASSERT_EQ(w.governors[0].chain().height(), 1u);
  w.governors[0].reveal_unchecked(tx.id());  // no-op if checked; harmless

  const Bytes ckpt = w.governors[0].checkpoint();

  // A "restarted" governor 0: restore into the peer structure of a fresh
  // World would need the same keys; restore into itself after clobbering is
  // the equivalent check here.
  w.governors[0].restore(ckpt);
  EXPECT_EQ(w.governors[0].chain().height(), 1u);
  EXPECT_EQ(w.governors[0].chain().head_hash(), w.governors[1].chain().head_hash());
  EXPECT_EQ(w.governors[0].stake().of(GovernorId(0)), 1u);
  EXPECT_EQ(w.governors[0].reputation().collector_count(), 2u);
  EXPECT_EQ(w.governors[0].pending_txs(), 0u);

  // The restored governor keeps participating: another round commits.
  w.governors[0].begin_round(2);
  w.governors[1].begin_round(2);
  w.settle();
  w.governors[0].propose_if_leader();
  w.governors[1].propose_if_leader();
  w.settle();
  EXPECT_EQ(w.governors[0].chain().height(), 2u);
}

TEST(GovernorCheckpoint, RejectsForeignAndTamperedCheckpoints) {
  World w;
  const Bytes ckpt0 = w.governors[0].checkpoint();
  EXPECT_THROW(w.governors[1].restore(ckpt0), ProtocolError);  // wrong identity

  Bytes tampered = ckpt0;
  tampered[2] ^= 0x01;  // magic
  EXPECT_THROW(w.governors[0].restore(tampered), DecodeError);

  Bytes truncated = ckpt0;
  truncated.resize(truncated.size() - 5);
  EXPECT_THROW(w.governors[0].restore(truncated), DecodeError);
}

/// Drive invalid-labeled uploads through governor 0 until screening records
/// at least one unchecked entry (the -1 label surviving the validation coin
/// is probabilistic; the fixture seed makes the loop deterministic).
std::vector<ledger::TxId> make_unchecked(World& w) {
  for (std::uint64_t seq = 1; seq <= 60; ++seq) {
    if (!w.governors[0].unrevealed_unchecked().empty()) break;
    const auto tx = w.make_tx(0, seq, false);
    w.upload(ledger::make_labeled(tx, Label::kInvalid, CollectorId(0),
                                  w.collector_keys[0]));
    w.settle();
  }
  return w.governors[0].unrevealed_unchecked();
}

TEST(GovernorCheckpoint, V2RoundTripCarriesUncheckedEntries) {
  World w;
  const auto ids = make_unchecked(w);
  ASSERT_FALSE(ids.empty());

  // The screening-time report snapshots must round-trip, or a restored
  // governor could never run the case-3 update.
  const Bytes ckpt = w.governors[0].checkpoint();
  w.governors[0].restore(ckpt);
  EXPECT_EQ(w.governors[0].unrevealed_unchecked(), ids);

  // Case 3 fires on the *restored* entry: the out-of-band reveal succeeds
  // and consumes it exactly once.
  EXPECT_TRUE(w.governors[0].reveal_unchecked(ids.front()));
  EXPECT_FALSE(w.governors[0].reveal_unchecked(ids.front()));
}

TEST(GovernorCheckpoint, V2PreservesRevealedFlagAcrossRestore) {
  World w;
  const auto ids = make_unchecked(w);
  ASSERT_FALSE(ids.empty());
  ASSERT_TRUE(w.governors[0].reveal_unchecked(ids.front()));

  const Bytes ckpt = w.governors[0].checkpoint();
  w.governors[0].restore(ckpt);
  // Already-revealed entries stay revealed: no double case-3 update.
  EXPECT_FALSE(w.governors[0].reveal_unchecked(ids.front()));
  const auto unrevealed = w.governors[0].unrevealed_unchecked();
  for (const auto& id : unrevealed) EXPECT_FALSE(id == ids.front());
}

TEST(GovernorCheckpoint, LegacyV1BlobIsRejected) {
  World w;
  const auto ids = make_unchecked(w);
  ASSERT_FALSE(ids.empty());
  const std::size_t height_before = w.governors[0].chain().height();

  // Transcode the v2 checkpoint into the retired v1 layout (same fields
  // minus the trailing unchecked-entry section, v1 magic).
  const Bytes ckpt = w.governors[0].checkpoint();
  BinaryReader r(ckpt);
  (void)r.str();
  BinaryWriter v1;
  v1.str("repchain-governor-ckpt-v1");
  v1.u32(r.u32());
  const std::uint64_t height = r.u64();
  v1.u64(height);
  for (std::uint64_t i = 0; i < height; ++i) v1.bytes(r.bytes());
  v1.bytes(r.bytes());  // reputation table
  v1.bytes(r.bytes());  // stake ledger

  // Refused like any foreign format, and the governor is left untouched.
  EXPECT_THROW(w.governors[0].restore(std::move(v1).take()), DecodeError);
  EXPECT_EQ(w.governors[0].chain().height(), height_before);
  EXPECT_EQ(w.governors[0].unrevealed_unchecked(), ids);
}

TEST(GovernorMisc, UnknownMessageKindIgnored) {
  World w;
  net::Message msg;
  msg.from = w.directory.node_of(CollectorId(0));
  msg.to = w.directory.node_of(GovernorId(0));
  msg.kind = net::MsgKind::kTest;
  msg.payload = to_bytes("noise");
  w.governors[0].on_message(msg);  // must not throw
  EXPECT_EQ(w.governors[0].pending_txs(), 0u);
}

// Every id a payload names below is past the two the fixture registers per
// role. Each handler must drop such a message (counting it where it already
// counts rejects) instead of letting the directory lookup throw out of
// on_message.
struct UnknownIdCase {
  const char* name;
  GovernorConfig config;
  std::function<void(World&)> run;  // deliver the message, check the outcome
};

void deliver(World& w, NodeId from, net::MsgKind kind, Bytes payload,
             std::size_t governor = 0) {
  net::Message msg;
  msg.from = from;
  msg.to = w.directory.node_of(GovernorId(static_cast<std::uint32_t>(governor)));
  msg.kind = kind;
  msg.payload = std::move(payload);
  w.governors[governor].on_message(msg);
}

GovernorConfig with_gossip() {
  GovernorConfig c;
  c.enable_label_gossip = true;
  return c;
}

GovernorConfig with_defense() {
  GovernorConfig c;
  c.byzantine_defense = true;
  return c;
}

/// Runs the election of round 1 on both governors; returns the winner.
GovernorId elect(World& w) {
  w.governors[0].begin_round(1);
  w.governors[1].begin_round(1);
  w.settle();
  return *w.governors[0].round_leader();
}

const std::vector<UnknownIdCase>& unknown_id_cases() {
  static const std::vector<UnknownIdCase> kCases = {
      {"collector upload labeled by an unknown collector", {},
       [](World& w) {
         const auto tx = w.make_tx(0, 1, true);
         deliver(w, w.directory.node_of(CollectorId(0)), net::MsgKind::kCollectorUpload,
                 ledger::make_labeled(tx, Label::kValid, CollectorId(99),
                                      w.collector_keys[0])
                     .encode());
         w.settle();
         EXPECT_EQ(w.governors[0].metrics().uploads_rejected, 1u);
         EXPECT_EQ(w.governors[0].pending_txs(), 0u);
       }},
      {"label gossip naming an unknown collector", with_gossip(),
       [](World& w) {
         const auto tx = w.make_tx(0, 1, true);
         BinaryWriter payload;
         payload.u32(1);
         payload.bytes(
             ledger::make_labeled(tx, Label::kInvalid, CollectorId(9), w.collector_keys[0])
                 .encode());
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kLabelGossip,
                 std::move(payload).take());
         EXPECT_EQ(w.governors[0].metrics().equivocations_detected, 0u);
       }},
      {"argue from an unknown provider", {},
       [](World& w) {
         const auto tx = w.make_tx(0, 1, true);
         deliver(w, w.directory.node_of(ProviderId(0)), net::MsgKind::kArgue,
                 make_argue(ProviderId(99), tx, 1, w.provider_keys[0]).encode());
         EXPECT_EQ(w.governors[0].metrics().argues_accepted, 0u);
       }},
      {"VRF announcement from an unknown governor", {},
       [](World& w) {
         w.governors[0].begin_round(1);
         VrfAnnounceMsg announce;
         announce.round = 1;
         announce.governor = GovernorId(9);
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kVrfAnnounce,
                 announce.encode());
         w.settle();
       }},
      {"block proposal by an unknown leader", with_defense(),
       [](World& w) {
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kBlockProposal,
                 ledger::make_block(1, 1, crypto::Hash256{}, GovernorId(9), {},
                                    w.governor_keys[1])
                     .encode());
         w.settle();
         EXPECT_EQ(w.governors[0].metrics().blocks_rejected, 1u);
         EXPECT_EQ(w.governors[0].chain().height(), 0u);
       }},
      {"sync response carrying an unknown leader's block", {},
       [](World& w) {
         w.governors[0].sync_chain();
         BlockResponseMsg resp;
         resp.serial = 1;
         resp.found = true;
         resp.block = ledger::make_block(1, 1, crypto::Hash256{}, GovernorId(9), {},
                                         w.governor_keys[1])
                          .encode();
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kBlockResponse,
                 resp.encode());
         EXPECT_EQ(w.governors[0].metrics().blocks_rejected, 1u);
         EXPECT_EQ(w.governors[0].chain().height(), 0u);
       }},
      {"stake transfer from an unknown governor", {},
       [](World& w) {
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kStakeTx,
                 make_stake_tx(GovernorId(9), GovernorId(0), 1, 0, w.governor_keys[1])
                     .encode());
         w.settle();
         EXPECT_EQ(w.governors[0].stake().of(GovernorId(0)), 1u);
       }},
      {"state signature by an unknown signer", {},
       [](World& w) {
         const GovernorId leader = elect(w);
         const GovernorId other(1 - leader.value());
         auto& gov = w.governors[leader.value()];
         gov.submit_stake_transfer(other, 1);
         w.settle();
         gov.run_stake_consensus_if_leader();  // leader now holds its proposal
         StateSignatureMsg sig;
         sig.round = 1;
         sig.signer = GovernorId(9);
         sig.sig = w.governor_keys[other.value()].sign(to_bytes("anything"));
         deliver(w, w.directory.node_of(other), net::MsgKind::kStateSignature,
                 sig.encode(), leader.value());
       }},
      {"state commit signed by an unknown governor", {},
       [](World& w) {
         const GovernorId leader = elect(w);
         StateCommitMsg commit;
         commit.round = 1;
         commit.leader = leader;
         commit.state = w.governors[0].stake().encode();
         for (const GovernorId signer : {GovernorId(9), GovernorId(0)}) {
           StateSignatureMsg sig;
           sig.round = 1;
           sig.signer = signer;
           commit.signatures.push_back(sig);
         }
         deliver(w, w.directory.node_of(leader), net::MsgKind::kStateCommit,
                 commit.encode());
       }},
      {"expulsion from an unknown accuser", {},
       [](World& w) {
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kExpelEvidence,
                 make_expel(1, GovernorId(9), GovernorId(1), to_bytes("evidence"),
                            w.governor_keys[1])
                     .encode());
         EXPECT_TRUE(w.governors[0].expelled().empty());
       }},
      {"expulsion of an unknown accused", {},
       [](World& w) {
         StateProposalMsg proposal;
         proposal.round = 1;
         proposal.leader = GovernorId(9);
         deliver(w, w.directory.node_of(GovernorId(1)), net::MsgKind::kExpelEvidence,
                 make_expel(1, GovernorId(1), GovernorId(9), proposal.encode(),
                            w.governor_keys[1])
                     .encode());
         EXPECT_TRUE(w.governors[0].expelled().empty());
       }},
      {"provider sync response carrying an unknown leader's block", {},
       [](World& w) {
         const NodeId node = w.directory.node_of(ProviderId(0));
         runtime::NodeContext ctx(node, w.net, w.rng.derive(200));
         Provider provider(ProviderId(0), ctx, copy_key(w.provider_keys[0]), w.im, w.oracle,
                           w.directory, /*active=*/true);
         provider.sync();
         BlockResponseMsg resp;
         resp.serial = 1;
         resp.found = true;
         resp.block = ledger::make_block(1, 1, crypto::Hash256{}, GovernorId(9), {},
                                         w.governor_keys[1])
                          .encode();
         net::Message msg;
         msg.from = w.directory.node_of(GovernorId(0));
         msg.to = node;
         msg.kind = net::MsgKind::kBlockResponse;
         msg.payload = resp.encode();
         provider.on_message(msg);
         EXPECT_EQ(provider.rejected_blocks(), 1u);
         EXPECT_EQ(provider.chain().height(), 0u);
       }},
  };
  return kCases;
}

TEST(GovernorUnknownIds, MessagesNamingUnknownIdsAreDropped) {
  for (const UnknownIdCase& c : unknown_id_cases()) {
    SCOPED_TRACE(c.name);
    World w(c.config);
    EXPECT_NO_THROW(c.run(w));
  }
}

TEST(GovernorMisc, CopyKeyHelperCompiles) {
  // Keeps the fixture's SigningKey copies honest.
  World w;
  const auto k = copy_key(w.collector_keys[0]);
  EXPECT_EQ(k.public_key(), w.collector_keys[0].public_key());
}

}  // namespace
}  // namespace repchain::protocol
