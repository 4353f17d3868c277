// Experiment E9 (§3.4.3): the VRF-PoS election elects each governor with
// probability proportional to its stake, and is deterministic given the
// round's announcements.
//
// We run the real ElectionState (full VRF evaluation + verification) over
// many rounds for several stake distributions and compare win frequencies
// with stake shares (plus a chi-square statistic).
//
// Expected shape: frequency column ~ share column; chi-square comfortably
// below the 95% critical value for m-1 degrees of freedom.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "protocol/leader_election.hpp"

namespace {

using namespace repchain;
using namespace repchain::protocol;
using repchain::bench::fmt;
using repchain::bench::Table;

void run_distribution(const char* name, const std::vector<std::uint64_t>& stakes,
                      Round rounds, bench::JsonReport& json) {
  bench::section(std::string("E9: stake distribution — ") + name);

  Rng rng(31337);
  identity::IdentityManager im(crypto::random_seed(rng));
  std::vector<crypto::SigningKey> keys;
  std::vector<NodeId> nodes;
  StakeLedger stake;
  for (std::uint32_t g = 0; g < stakes.size(); ++g) {
    keys.emplace_back(crypto::random_seed(rng));
    nodes.push_back(NodeId(g));
    im.enroll(nodes.back(), identity::Role::kGovernor, keys.back().public_key());
    stake.set(GovernorId(g), stakes[g]);
  }

  std::vector<std::uint64_t> wins(stakes.size(), 0);
  const std::set<GovernorId> expelled;
  Rng coeffs = rng.derive(1);  // batch coefficients for the ticket checks
  for (Round r = 1; r <= rounds; ++r) {
    ElectionState st(r, stake, expelled);
    for (std::uint32_t g = 0; g < stakes.size(); ++g) {
      (void)st.add_announcement(
          make_announcement(r, GovernorId(g), stakes[g], keys[g]), im, nodes[g], coeffs);
    }
    const auto winner = st.winner();
    if (winner) ++wins[winner->value()];
  }

  Table table({"governor", "stake", "share", "wins", "frequency"});
  table.print_header();
  double chi2 = 0.0;
  for (std::size_t g = 0; g < stakes.size(); ++g) {
    const double share =
        static_cast<double>(stakes[g]) / static_cast<double>(stake.total());
    const double freq = static_cast<double>(wins[g]) / static_cast<double>(rounds);
    const double expected = share * static_cast<double>(rounds);
    if (expected > 0) {
      const double diff = static_cast<double>(wins[g]) - expected;
      chi2 += diff * diff / expected;
    }
    table.row({std::to_string(g), std::to_string(stakes[g]), fmt(share, 3),
               std::to_string(wins[g]), fmt(freq, 3)});
    json.row("distributions", {{"distribution", bench::js(name)},
                               {"governor", bench::ju(g)},
                               {"stake", bench::ju(stakes[g])},
                               {"share", bench::jf(share, 3)},
                               {"wins", bench::ju(wins[g])},
                               {"frequency", bench::jf(freq, 3)}});
  }
  std::printf("chi-square = %.2f over %zu dof (95%% critical ~ %s)\n", chi2,
              stakes.size() - 1,
              stakes.size() == 4   ? "7.81"
              : stakes.size() == 3 ? "5.99"
                                   : "11.07");
}

}  // namespace

int main() {
  std::printf("bench_leader_election — E9: P[win] proportional to stake\n");
  bench::JsonReport json("leader_election");
  run_distribution("uniform 1:1:1:1", {1, 1, 1, 1}, 2000, json);
  run_distribution("skewed 4:2:1:1", {4, 2, 1, 1}, 2000, json);
  run_distribution("dominant 8:1:1", {8, 1, 1}, 2000, json);
  run_distribution("six equal governors", {2, 2, 2, 2, 2, 2}, 1500, json);
  json.write();
  return 0;
}
