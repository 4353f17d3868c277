// Unit tests for the protocol's standalone components: stake ledger, argue
// buffer, screening engine, directory.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "protocol/argue_buffer.hpp"
#include "protocol/directory.hpp"
#include "protocol/screening.hpp"
#include "protocol/stake.hpp"

namespace repchain::protocol {
namespace {

using ledger::Label;

// --- StakeLedger -------------------------------------------------------------

TEST(StakeLedger, SetAndTotals) {
  StakeLedger s;
  s.set(GovernorId(0), 5);
  s.set(GovernorId(1), 3);
  EXPECT_EQ(s.total(), 8u);
  EXPECT_EQ(s.of(GovernorId(0)), 5u);
  s.set(GovernorId(0), 2);  // overwrite adjusts total
  EXPECT_EQ(s.total(), 5u);
}

TEST(StakeLedger, TransferMovesStake) {
  StakeLedger s;
  s.set(GovernorId(0), 5);
  s.set(GovernorId(1), 1);
  s.transfer(GovernorId(0), GovernorId(1), 3);
  EXPECT_EQ(s.of(GovernorId(0)), 2u);
  EXPECT_EQ(s.of(GovernorId(1)), 4u);
  EXPECT_EQ(s.total(), 6u);
}

TEST(StakeLedger, TransferInsufficientThrows) {
  StakeLedger s;
  s.set(GovernorId(0), 2);
  s.set(GovernorId(1), 0);
  EXPECT_THROW(s.transfer(GovernorId(0), GovernorId(1), 3), ProtocolError);
  EXPECT_THROW(s.transfer(GovernorId(9), GovernorId(1), 1), ProtocolError);
}

TEST(StakeLedger, UnknownGovernorThrows) {
  StakeLedger s;
  EXPECT_THROW((void)s.of(GovernorId(0)), ProtocolError);
}

TEST(StakeLedger, CanonicalEncodingRoundTrip) {
  StakeLedger s;
  s.set(GovernorId(2), 7);
  s.set(GovernorId(0), 1);
  s.set(GovernorId(1), 0);
  const StakeLedger d = StakeLedger::decode(s.encode());
  EXPECT_EQ(d, s);
  EXPECT_EQ(d.total(), 8u);
  EXPECT_EQ(d.state_hash(), s.state_hash());
}

TEST(StakeLedger, EncodingIsInsertionOrderIndependent) {
  StakeLedger a, b;
  a.set(GovernorId(0), 1);
  a.set(GovernorId(1), 2);
  b.set(GovernorId(1), 2);
  b.set(GovernorId(0), 1);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(StakeLedger, DecodeRejectsDuplicates) {
  StakeLedger s;
  s.set(GovernorId(0), 1);
  Bytes enc = s.encode();
  // Duplicate the single entry and bump the count.
  Bytes dup = enc;
  dup[0] = 2;  // count u32 little-endian low byte
  for (std::size_t i = 4; i < enc.size(); ++i) dup.push_back(enc[i]);
  EXPECT_THROW(StakeLedger::decode(dup), DecodeError);
}

// --- ArgueBuffer --------------------------------------------------------------

ledger::TxId tx_id(std::uint8_t tag) {
  ledger::TxId id{};
  id[0] = tag;
  return id;
}

TEST(ArgueBuffer, ZeroUThrows) {
  EXPECT_THROW(ArgueBuffer(0), ConfigError);
}

TEST(ArgueBuffer, FreshTxIsArguable) {
  ArgueBuffer buf(3);
  buf.record(ProviderId(0), tx_id(1));
  EXPECT_TRUE(buf.arguable(ProviderId(0), tx_id(1)));
  EXPECT_FALSE(buf.arguable(ProviderId(0), tx_id(2)));
  EXPECT_FALSE(buf.arguable(ProviderId(1), tx_id(1)));
}

TEST(ArgueBuffer, ExpiresAfterUBurials) {
  ArgueBuffer buf(3);
  buf.record(ProviderId(0), tx_id(1));
  // Bury with exactly U = 3 newer: still arguable.
  buf.record(ProviderId(0), tx_id(2));
  buf.record(ProviderId(0), tx_id(3));
  buf.record(ProviderId(0), tx_id(4));
  EXPECT_TRUE(buf.arguable(ProviderId(0), tx_id(1)));
  // One more burial: expired permanently.
  buf.record(ProviderId(0), tx_id(5));
  EXPECT_FALSE(buf.arguable(ProviderId(0), tx_id(1)));
  EXPECT_EQ(buf.expired(), 1u);
}

TEST(ArgueBuffer, BurialsAreScopedPerProvider) {
  ArgueBuffer buf(1);
  buf.record(ProviderId(0), tx_id(1));
  for (std::uint8_t i = 10; i < 15; ++i) buf.record(ProviderId(1), tx_id(i));
  EXPECT_TRUE(buf.arguable(ProviderId(0), tx_id(1)));
}

TEST(ArgueBuffer, ConsumeRemovesEntry) {
  ArgueBuffer buf(3);
  buf.record(ProviderId(0), tx_id(1));
  EXPECT_TRUE(buf.consume(ProviderId(0), tx_id(1)));
  EXPECT_FALSE(buf.arguable(ProviderId(0), tx_id(1)));
  EXPECT_FALSE(buf.consume(ProviderId(0), tx_id(1)));  // second consume fails
}

TEST(ArgueBuffer, PendingCounts) {
  ArgueBuffer buf(10);
  EXPECT_EQ(buf.pending(ProviderId(0)), 0u);
  buf.record(ProviderId(0), tx_id(1));
  buf.record(ProviderId(0), tx_id(2));
  EXPECT_EQ(buf.pending(ProviderId(0)), 2u);
}

// --- Directory -----------------------------------------------------------------

TEST(Directory, RegistrationAndLookup) {
  Directory d;
  d.add_provider(ProviderId(0), NodeId(10));
  d.add_collector(CollectorId(0), NodeId(20));
  d.add_governor(GovernorId(0), NodeId(30));

  EXPECT_EQ(d.node_of(ProviderId(0)), NodeId(10));
  EXPECT_EQ(d.node_of(CollectorId(0)), NodeId(20));
  EXPECT_EQ(d.node_of(GovernorId(0)), NodeId(30));
  EXPECT_EQ(d.provider_at(NodeId(10)), ProviderId(0));
  EXPECT_EQ(d.collector_at(NodeId(20)), CollectorId(0));
  EXPECT_EQ(d.governor_at(NodeId(30)), GovernorId(0));
  EXPECT_EQ(d.provider_at(NodeId(99)), std::nullopt);
}

TEST(Directory, DuplicateRegistrationThrows) {
  Directory d;
  d.add_provider(ProviderId(0), NodeId(10));
  EXPECT_THROW(d.add_provider(ProviderId(0), NodeId(11)), ConfigError);
}

TEST(Directory, UnknownLookupThrows) {
  Directory d;
  EXPECT_THROW((void)d.node_of(ProviderId(3)), ConfigError);
}

TEST(Directory, LinksAreBidirectionalAndDeduped) {
  Directory d;
  d.add_provider(ProviderId(0), NodeId(10));
  d.add_collector(CollectorId(0), NodeId(20));
  d.add_collector(CollectorId(1), NodeId(21));
  d.link(ProviderId(0), CollectorId(0));
  d.link(ProviderId(0), CollectorId(0));  // duplicate ignored
  d.link(ProviderId(0), CollectorId(1));

  EXPECT_EQ(d.collectors_of(ProviderId(0)).size(), 2u);
  EXPECT_EQ(d.providers_of(CollectorId(0)).size(), 1u);
  EXPECT_TRUE(d.linked(ProviderId(0), CollectorId(0)));
  EXPECT_FALSE(d.linked(ProviderId(0), CollectorId(2)));
}

TEST(Directory, LinkUnregisteredThrows) {
  Directory d;
  d.add_provider(ProviderId(0), NodeId(10));
  EXPECT_THROW(d.link(ProviderId(0), CollectorId(0)), ConfigError);
}

TEST(Directory, GovernorNodesList) {
  Directory d;
  d.add_governor(GovernorId(0), NodeId(5));
  d.add_governor(GovernorId(1), NodeId(6));
  const auto nodes = d.governor_nodes();
  EXPECT_EQ(nodes, (std::vector<NodeId>{NodeId(5), NodeId(6)}));
}

// --- ScreeningEngine ------------------------------------------------------------

struct ScreeningFixture {
  ScreeningFixture() : table(params()), rng(404), engine(table, oracle, rng) {
    for (std::uint32_t c = 0; c < 3; ++c) table.link(CollectorId(c), ProviderId(0));
    key.emplace(crypto::PrivateSeed{});
  }

  static reputation::ReputationParams params() {
    reputation::ReputationParams p;
    p.f = 0.5;
    return p;
  }

  ledger::Transaction make_tx(std::uint64_t seq, bool valid) {
    auto tx = ledger::make_transaction(ProviderId(0), seq, seq, to_bytes("x"), *key);
    oracle.register_tx(tx.id(), valid);
    return tx;
  }

  reputation::ReputationTable table;
  ledger::ValidationOracle oracle;
  Rng rng;
  ScreeningEngine engine;
  std::optional<crypto::SigningKey> key;
};

TEST(ScreeningEngine, PlusOnePickAlwaysChecked) {
  ScreeningFixture f;
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto tx = f.make_tx(i, true);
    const std::vector<reputation::Report> reports = {
        {CollectorId(0), Label::kValid}, {CollectorId(1), Label::kValid}};
    const auto out = f.engine.screen(tx, tx.id(), reports);
    EXPECT_TRUE(out.checked);
    EXPECT_EQ(out.kind, ScreeningKind::kAppendedValid);
  }
  EXPECT_EQ(f.engine.stats().checked, 50u);
  EXPECT_EQ(f.engine.stats().unchecked, 0u);
}

TEST(ScreeningEngine, CheckedInvalidDiscarded) {
  ScreeningFixture f;
  const auto tx = f.make_tx(1, false);
  const std::vector<reputation::Report> reports = {{CollectorId(0), Label::kValid}};
  const auto out = f.engine.screen(tx, tx.id(), reports);
  EXPECT_EQ(out.kind, ScreeningKind::kDiscardedInvalid);
  // Misreport counter moved for the wrong labeler (case 2).
  EXPECT_EQ(f.table.misreport(CollectorId(0)), -1);
}

TEST(ScreeningEngine, MinusOneSometimesUnchecked) {
  // Single -1 reporter: Pr[chosen] = 1, so unchecked with probability f = 0.5.
  ScreeningFixture f;
  int unchecked = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto tx = f.make_tx(100 + i, false);
    const std::vector<reputation::Report> reports = {{CollectorId(0), Label::kInvalid}};
    const auto out = f.engine.screen(tx, tx.id(), reports);
    if (out.kind == ScreeningKind::kRecordedUnchecked) ++unchecked;
  }
  EXPECT_NEAR(static_cast<double>(unchecked) / n, 0.5, 0.04);
}

TEST(ScreeningEngine, UncheckedFractionBoundedByF) {
  // Lemma 2: for any report pattern, P[unchecked] <= f.
  ScreeningFixture f;
  int unchecked = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const auto tx = f.make_tx(10'000 + i, i % 2 == 0);
    const std::vector<reputation::Report> reports = {
        {CollectorId(0), Label::kInvalid},
        {CollectorId(1), Label::kInvalid},
        {CollectorId(2), Label::kValid}};
    const auto out = f.engine.screen(tx, tx.id(), reports);
    if (!out.checked) ++unchecked;
  }
  EXPECT_LE(static_cast<double>(unchecked) / n, 0.5 + 0.03);
}

TEST(ScreeningEngine, SelectionRespectsReputation) {
  ScreeningFixture f;
  // Crush collector 1's weight on provider 0 so selection favours 0.
  const std::vector<reputation::Report> wrong1 = {{CollectorId(0), Label::kValid},
                                                  {CollectorId(1), Label::kInvalid}};
  for (int i = 0; i < 40; ++i) (void)f.table.update_revealed(ProviderId(0), wrong1, true);

  int chose_bad = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto tx = f.make_tx(50'000 + i, true);
    const auto out = f.engine.screen(
        tx, tx.id(), std::vector<reputation::Report>{{CollectorId(0), Label::kValid},
                                            {CollectorId(1), Label::kInvalid}});
    if (out.selection.chosen == CollectorId(1)) ++chose_bad;
  }
  EXPECT_LT(chose_bad, n / 50);
}

}  // namespace
}  // namespace repchain::protocol
