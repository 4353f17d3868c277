#include "protocol/leader_election.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "common/rng.hpp"
#include "crypto/keygen.hpp"

namespace repchain::protocol {
namespace {

struct Fixture {
  Fixture() : rng(606), im(crypto::random_seed(rng)) {
    for (std::uint32_t g = 0; g < 4; ++g) {
      keys.emplace_back(crypto::random_seed(rng));
      nodes.push_back(NodeId(100 + g));
      im.enroll(nodes.back(), identity::Role::kGovernor, keys.back().public_key());
      stake.set(GovernorId(g), 2);
    }
  }

  ElectionState make_state(Round r = 1) { return ElectionState(r, stake, expelled); }

  VrfAnnounceMsg announce(std::uint32_t g, Round r = 1) {
    return make_announcement(r, GovernorId(g), stake.of(GovernorId(g)), keys[g]);
  }

  Rng rng;
  identity::IdentityManager im;
  std::vector<crypto::SigningKey> keys;
  std::vector<NodeId> nodes;
  StakeLedger stake;
  std::set<GovernorId> expelled;
};

TEST(LeaderElection, CompletesWithAllAnnouncements) {
  Fixture f;
  ElectionState st = f.make_state();
  EXPECT_FALSE(st.complete());
  EXPECT_EQ(st.winner(), std::nullopt);
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_TRUE(st.add_announcement(f.announce(g), f.im, f.nodes[g]));
  }
  EXPECT_TRUE(st.complete());
  ASSERT_TRUE(st.winner().has_value());
}

TEST(LeaderElection, DeterministicAcrossObservers) {
  Fixture f;
  ElectionState a = f.make_state();
  ElectionState b = f.make_state();
  // Feed the same announcements in different orders.
  for (std::uint32_t g : {0u, 1u, 2u, 3u}) {
    EXPECT_TRUE(a.add_announcement(f.announce(g), f.im, f.nodes[g]));
  }
  for (std::uint32_t g : {3u, 1u, 0u, 2u}) {
    EXPECT_TRUE(b.add_announcement(f.announce(g), f.im, f.nodes[g]));
  }
  EXPECT_EQ(a.winner(), b.winner());
  EXPECT_EQ(a.best().hash, b.best().hash);
}

TEST(LeaderElection, DifferentRoundsDifferentWinnersEventually) {
  Fixture f;
  std::set<GovernorId> winners;
  for (Round r = 1; r <= 30 && winners.size() < 2; ++r) {
    ElectionState st(r, f.stake, f.expelled);
    for (std::uint32_t g = 0; g < 4; ++g) {
      (void)st.add_announcement(f.announce(g, r), f.im, f.nodes[g]);
    }
    ASSERT_TRUE(st.winner().has_value());
    winners.insert(*st.winner());
  }
  // VRF pseudorandomness: 30 rounds with 4 equal governors must not always
  // elect the same one.
  EXPECT_GE(winners.size(), 2u);
}

TEST(LeaderElection, RejectsWrongRound) {
  Fixture f;
  ElectionState st = f.make_state(1);
  EXPECT_FALSE(st.add_announcement(f.announce(0, 2), f.im, f.nodes[0]));
}

TEST(LeaderElection, RejectsDuplicateAnnouncement) {
  Fixture f;
  ElectionState st = f.make_state();
  EXPECT_TRUE(st.add_announcement(f.announce(0), f.im, f.nodes[0]));
  EXPECT_FALSE(st.add_announcement(f.announce(0), f.im, f.nodes[0]));
}

TEST(LeaderElection, RejectsWrongTicketCount) {
  Fixture f;
  ElectionState st = f.make_state();
  // Claim 3 tickets while owning stake 2.
  const VrfAnnounceMsg msg = make_announcement(1, GovernorId(0), 3, f.keys[0]);
  EXPECT_FALSE(st.add_announcement(msg, f.im, f.nodes[0]));
}

TEST(LeaderElection, RejectsForgedProof) {
  Fixture f;
  ElectionState st = f.make_state();
  // Governor 0's announcement signed with governor 1's key.
  const VrfAnnounceMsg forged = make_announcement(1, GovernorId(0), 2, f.keys[1]);
  EXPECT_FALSE(st.add_announcement(forged, f.im, f.nodes[0]));
}

TEST(LeaderElection, RejectsExpelledGovernor) {
  Fixture f;
  f.expelled.insert(GovernorId(2));
  ElectionState st = f.make_state();
  EXPECT_FALSE(st.add_announcement(f.announce(2), f.im, f.nodes[2]));
  // Completes without the expelled member.
  for (std::uint32_t g : {0u, 1u, 3u}) {
    EXPECT_TRUE(st.add_announcement(f.announce(g), f.im, f.nodes[g]));
  }
  EXPECT_TRUE(st.complete());
  EXPECT_NE(st.winner(), GovernorId(2));
}

TEST(LeaderElection, ZeroStakeGovernorCannotWin) {
  Fixture f;
  f.stake.set(GovernorId(3), 0);
  ElectionState st = f.make_state();
  for (std::uint32_t g : {0u, 1u, 2u}) {
    EXPECT_TRUE(st.add_announcement(f.announce(g), f.im, f.nodes[g]));
  }
  EXPECT_TRUE(st.complete());
  EXPECT_NE(st.winner(), GovernorId(3));
}

TEST(LeaderElection, StakeProportionalityOverManyRounds) {
  // Governor 0 holds 3/6 of stake; its win frequency over 300 rounds should
  // be near 1/2 (the §3.4.3 proportionality claim; E9 sweeps this further).
  Fixture f;
  f.stake.set(GovernorId(0), 3);
  f.stake.set(GovernorId(1), 1);
  f.stake.set(GovernorId(2), 1);
  f.stake.set(GovernorId(3), 1);

  int wins0 = 0;
  const Round rounds = 300;
  for (Round r = 1; r <= rounds; ++r) {
    ElectionState st(r, f.stake, f.expelled);
    for (std::uint32_t g = 0; g < 4; ++g) {
      (void)st.add_announcement(
          make_announcement(r, GovernorId(g), f.stake.of(GovernorId(g)), f.keys[g]),
          f.im, f.nodes[g]);
    }
    if (st.winner() == GovernorId(0)) ++wins0;
  }
  EXPECT_NEAR(wins0 / static_cast<double>(rounds), 0.5, 0.09);
}

TEST(LeaderElection, TenTicketAnnouncementWithOneBadTicketAnywhereIsRejected) {
  // One proof that fails, or one malformed ticket, at any of ten positions
  // rejects the whole announcement, and leaves the governor free to announce.
  Fixture f;
  f.stake.set(GovernorId(0), 10);
  const VrfAnnounceMsg good = f.announce(0);
  ASSERT_EQ(good.tickets.size(), 10u);
  const VrfAnnounceMsg other_round = f.announce(0, 2);
  const std::vector<std::function<void(VrfTicket&, std::size_t)>> spoilers = {
      [&](VrfTicket& t, std::size_t pos) { t.proof = other_round.tickets[pos].proof; },
      [](VrfTicket& t, std::size_t) { t.proof.bytes[3] ^= 0x10; },   // R altered
      [](VrfTicket& t, std::size_t) { t.proof.bytes[63] |= 0xf0; },  // S not canonical
      [](VrfTicket& t, std::size_t) { t.governor = GovernorId(1); },
      [](VrfTicket& t, std::size_t) { t.unit = 10; },                // out of range
      [&](VrfTicket& t, std::size_t pos) { t.unit = good.tickets[(pos + 1) % 10].unit; },
  };
  for (std::size_t s = 0; s < spoilers.size(); ++s) {
    for (std::size_t pos = 0; pos < 10; ++pos) {
      ElectionState st = f.make_state();
      VrfAnnounceMsg bad = good;
      spoilers[s](bad.tickets[pos], pos);
      EXPECT_FALSE(st.add_announcement(bad, f.im, f.nodes[0]))
          << "spoiler " << s << " at " << pos;
      EXPECT_EQ(st.announced(), 0u);
      EXPECT_TRUE(st.add_announcement(good, f.im, f.nodes[0]));
    }
  }
}

TEST(LeaderElection, BatchedTicketsMatchPerTicketVrfVerify) {
  // Over several rounds with stakes 10, 5, 3 and 1, the winner and best
  // ticket equal a reference that verifies each ticket on its own.
  Fixture f;
  const std::uint64_t stakes[] = {10, 5, 3, 1};
  for (std::uint32_t g = 0; g < 4; ++g) f.stake.set(GovernorId(g), stakes[g]);
  for (Round r = 1; r <= 12; ++r) {
    ElectionState st(r, f.stake, f.expelled);
    ElectionState::BestTicket ref;
    for (std::uint32_t g = 0; g < 4; ++g) {
      const VrfAnnounceMsg msg = f.announce(g, r);
      ASSERT_TRUE(st.add_announcement(msg, f.im, f.nodes[g]));
      for (const VrfTicket& t : msg.tickets) {
        const auto out = crypto::vrf_verify(f.keys[g].public_key(),
                                            vrf_alpha(r, t.governor, t.unit), t.proof);
        ASSERT_TRUE(out.has_value());
        const std::uint64_t hash = crypto::vrf_output_to_u64(*out);
        if (std::tie(hash, t.governor, t.unit) < std::tie(ref.hash, ref.governor, ref.unit)) {
          ref = {hash, t.governor, t.unit};
        }
      }
    }
    EXPECT_EQ(st.winner(), ref.governor) << "round " << r;
    EXPECT_EQ(st.best().hash, ref.hash) << "round " << r;
    EXPECT_EQ(st.best().governor, ref.governor) << "round " << r;
    EXPECT_EQ(st.best().unit, ref.unit) << "round " << r;
  }
}

}  // namespace
}  // namespace repchain::protocol
