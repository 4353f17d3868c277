// Experiment E-ADV: the adversary layer's provable-punishment claims, run
// in-protocol (not on the abstract game):
//
//   a) Equivocating leader (Theorem 2 flavor): a leader that signs two
//      conflicting blocks for one serial is detected from its own signatures
//      and expelled by every honest replica — completeness of punishment —
//      while a fully honest run under the same defenses produces zero
//      expulsions and zero evidence events — soundness (punished iff
//      misbehaved).
//   b) Forgery and double-spend (Lemma 1, Almost No Creation): forged
//      provider signatures and reused serials never enter any honest chain;
//      detection counters match what the attack actually emitted.
//   c) Misreporting collector (Theorem 1 / Lemma 2 comparator): with one
//      collector deliberately flipping labels at rate q, the governors'
//      screening loss L_T must stay inside the multiplicative-weights regret
//      bound L_T <= S_min + 16*sqrt(T log r); with the honest collectors
//      near-perfect, S_min ~ 0 and the bound is 16*sqrt(T log r). The
//      misreporter's w_misreport score must fall below every honest one.
//
// Writes BENCH_adversary.json next to the stdout tables.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace repchain;
using repchain::bench::fmt;
using repchain::bench::fmt_u;
using repchain::bench::Table;

// Every experiment row below is an isolated scenario run; each section
// shards its runs over the cores and emits rows in the original order, so
// the report matches a serial sweep exactly.
const sim::ParallelSweep& sweep() {
  static const sim::ParallelSweep pool(0);  // 0 = hardware concurrency
  return pool;
}

sim::ScenarioConfig base_config(std::uint64_t seed, std::size_t rounds) {
  sim::ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 4;
  cfg.topology.r = 2;
  cfg.rounds = rounds;
  cfg.txs_per_provider_per_round = 3;
  cfg.p_valid = 0.8;
  cfg.latency = net::LatencyModel{1 * kMillisecond, 2 * kMillisecond};
  cfg.governor.reliable_delivery = true;
  cfg.seed = seed;
  return cfg;
}

/// Transactions screened into the reference chain (the in-protocol T of the
/// regret bound).
std::uint64_t screened_txs(const sim::ScenarioSummary& sum) {
  return sum.chain_valid_txs + sum.chain_unchecked_txs + sum.chain_argued_txs;
}

// --- a) equivocating leader --------------------------------------------------

void equivocating_leader(bench::JsonReport& json) {
  bench::section("E-ADV-a: equivocating leader — detect, expel, keep agreeing");
  bench::note("Governor 2 (stake 5 of 8, so it keeps winning elections) signs\n"
              "two conflicting blocks per led round inside [2, rounds-1).\n"
              "Expected: every equivocation detected, governor 2 expelled by\n"
              "all honest replicas, honest chains never fork.");
  Table table({"seed", "equiv_sent", "detected", "expellers", "honest_agree",
               "blocks", "evidence"});
  table.print_header();
  const std::size_t rounds = 10;
  const std::size_t byz_gov = 2;
  struct Row {
    std::uint64_t seed = 0, sent = 0, detected = 0, evidence = 0, blocks = 0;
    std::size_t expellers = 0;
    bool honest_agree = true;
  };
  const std::vector<Row> rows = sweep().map<Row>(4, [rounds, byz_gov](std::size_t i) {
    const std::uint64_t seed = 7101 + i;
    sim::ScenarioConfig cfg = base_config(seed, rounds);
    cfg.governor_stakes = {1, 1, 5, 1};
    adversary::EquivocatingLeaderSpec e;
    e.from_round = 2;
    e.until_round = rounds - 1;
    e.governor = byz_gov;
    cfg.adversary.equivocating_leaders = {e};
    sim::Scenario s(cfg);
    s.run();
    const auto sum = s.summary();

    Row row;
    row.seed = seed;
    row.sent = s.governor(byz_gov).metrics().byzantine_equivocations_sent;
    const protocol::Governor* ref = nullptr;
    for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
      if (g == byz_gov) continue;
      const auto& gov = s.governor(g);
      row.detected += gov.metrics().proposal_equivocations;
      if (gov.expelled().contains(GovernorId(byz_gov))) ++row.expellers;
      if (ref == nullptr) {
        ref = &gov;
      } else {
        row.honest_agree = row.honest_agree &&
                           ledger::ChainStore::same_prefix(ref->chain(), gov.chain());
      }
    }
    row.blocks = sum.blocks;
    row.evidence = sum.byzantine_evidence;
    return row;
  });
  for (const Row& row : rows) {
    table.row({fmt_u(row.seed), fmt_u(row.sent), fmt_u(row.detected),
               fmt_u(row.expellers), row.honest_agree ? "yes" : "NO",
               fmt_u(row.blocks), fmt_u(row.evidence)});
    json.row("equivocating_leader",
             {{"seed", bench::ju(row.seed)},
              {"equivocations_sent", bench::ju(row.sent)},
              {"detected", bench::ju(row.detected)},
              {"expellers", bench::ju(row.expellers)},
              {"honest_agreement", row.honest_agree ? "true" : "false"},
              {"blocks", bench::ju(row.blocks)},
              {"evidence_events", bench::ju(row.evidence)}});
  }
}

void punishment_soundness(bench::JsonReport& json) {
  bench::section("E-ADV-b: punishment soundness — honest runs under full defenses");
  bench::note("Same topology, no adversary scheduled, every Byzantine defense\n"
              "forced on. Theorem 2's other direction: nobody honest is ever\n"
              "punished. Expected: zero expulsions, zero evidence events.");
  Table table({"seed", "blocks", "expulsions", "evidence", "agreement"});
  table.print_header();
  struct Row {
    std::uint64_t seed = 0, blocks = 0, expulsions = 0, evidence = 0;
    bool agreement = false;
  };
  const std::vector<Row> rows = sweep().map<Row>(4, [](std::size_t i) {
    const std::uint64_t seed = 7201 + i;
    sim::ScenarioConfig cfg = base_config(seed, 10);
    cfg.governor.byzantine_defense = true;
    cfg.enable_label_gossip = true;
    sim::Scenario s(cfg);
    s.run();
    const auto sum = s.summary();
    Row row;
    row.seed = seed;
    row.blocks = sum.blocks;
    for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
      row.expulsions += s.governor(g).expelled().size();
    }
    row.evidence = sum.byzantine_evidence;
    row.agreement = sum.agreement;
    return row;
  });
  for (const Row& row : rows) {
    table.row({fmt_u(row.seed), fmt_u(row.blocks), fmt_u(row.expulsions),
               fmt_u(row.evidence), row.agreement ? "yes" : "NO"});
    json.row("honest_under_defense",
             {{"seed", bench::ju(row.seed)},
              {"blocks", bench::ju(row.blocks)},
              {"expulsions", bench::ju(row.expulsions)},
              {"evidence_events", bench::ju(row.evidence)},
              {"agreement", row.agreement ? "true" : "false"}});
  }
}

// --- b) forgery / double-spend ----------------------------------------------

/// Count transactions in the reference chain that reuse a (provider, seq)
/// pair or come from the forged-sequence space.
struct ChainAudit {
  std::uint64_t forged_in_chain = 0;
  std::uint64_t twins_in_chain = 0;
};

ChainAudit audit_chain(const ledger::ChainStore& chain) {
  ChainAudit a;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> seen;
  for (const auto& block : chain.blocks()) {
    for (const auto& rec : block.txs) {
      if (rec.tx.seq >= 1'000'000'000) ++a.forged_in_chain;  // forge_seq_ space
      ++seen[{rec.tx.provider.value(), rec.tx.seq}];
    }
  }
  for (const auto& [key, count] : seen) {
    if (count > 1) a.twins_in_chain += count - 1;
  }
  return a;
}

void creation_attacks(bench::JsonReport& json) {
  bench::section("E-ADV-c: forgery and double-spend — Almost No Creation");
  bench::note("A collector forging uploads at `forge`, or a provider reusing\n"
              "serials at `dspend`, against the signature check and the serial\n"
              "guard. Expected: detections track the attack counters; nothing\n"
              "forged or duplicated ever enters the chain.");
  Table table({"attack", "rate", "injected", "detected", "in_chain", "blocks"});
  table.print_header();
  const std::size_t rounds = 10;
  struct Row {
    double rate = 0.0;
    std::uint64_t injected = 0, detected = 0, in_chain = 0, blocks = 0;
  };
  const std::vector<double> forge_rates = {0.1, 0.3, 0.5};
  const std::vector<Row> forge_rows =
      sweep().map<Row>(forge_rates.size(), [rounds, &forge_rates](std::size_t i) {
        const double rate = forge_rates[i];
        sim::ScenarioConfig cfg =
            base_config(8301 + static_cast<std::uint64_t>(rate * 10), rounds);
        adversary::ByzantineCollectorSpec c;
        c.from_round = 1;
        c.until_round = rounds + 1;
        c.collector = 1;
        c.forge_probability = rate;
        cfg.adversary.byzantine_collectors = {c};
        sim::Scenario s(cfg);
        s.run();
        Row row;
        row.rate = rate;
        row.injected = s.collectors()[1].stats().forged;
        for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
          row.detected += s.governor(g).metrics().forgeries_detected;
        }
        row.in_chain = audit_chain(s.governor(0).chain()).forged_in_chain;
        row.blocks = s.summary().blocks;
        return row;
      });
  for (const Row& row : forge_rows) {
    table.row({"forge", fmt(row.rate, 1), fmt_u(row.injected), fmt_u(row.detected),
               fmt_u(row.in_chain), fmt_u(row.blocks)});
    json.row("forgery", {{"rate", bench::jf(row.rate, 2)},
                         {"injected", bench::ju(row.injected)},
                         {"detected", bench::ju(row.detected)},
                         {"in_chain", bench::ju(row.in_chain)},
                         {"blocks", bench::ju(row.blocks)}});
  }
  const std::vector<double> dspend_rates = {0.2, 0.5, 0.8};
  const std::vector<Row> dspend_rows =
      sweep().map<Row>(dspend_rates.size(), [rounds, &dspend_rates](std::size_t i) {
        const double rate = dspend_rates[i];
        sim::ScenarioConfig cfg =
            base_config(8401 + static_cast<std::uint64_t>(rate * 10), rounds);
        adversary::DoubleSpendSpec d;
        d.from_round = 1;
        d.until_round = rounds + 1;
        d.provider = 2;
        d.probability = rate;
        cfg.adversary.double_spenders = {d};
        sim::Scenario s(cfg);
        s.run();
        Row row;
        row.rate = rate;
        row.injected = s.providers()[2].double_spends_submitted();
        for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
          row.detected += s.governor(g).metrics().double_spends_detected;
        }
        row.in_chain = audit_chain(s.governor(0).chain()).twins_in_chain;
        row.blocks = s.summary().blocks;
        return row;
      });
  for (const Row& row : dspend_rows) {
    table.row({"dspend", fmt(row.rate, 1), fmt_u(row.injected), fmt_u(row.detected),
               fmt_u(row.in_chain), fmt_u(row.blocks)});
    json.row("double_spend", {{"rate", bench::jf(row.rate, 2)},
                              {"injected", bench::ju(row.injected)},
                              {"detected", bench::ju(row.detected)},
                              {"in_chain", bench::ju(row.in_chain)},
                              {"blocks", bench::ju(row.blocks)}});
  }
}

// --- c) misreporting collector vs the regret bound ---------------------------

void misreport_bound(bench::JsonReport& json) {
  bench::section("E-ADV-d: misreporting collector vs Theorem 1's regret bound");
  bench::note("Collector 0 flips labels at rate q for the whole run (honest\n"
              "peers are perfect, so S_min ~ 0). The governors' screening loss\n"
              "L_T must stay inside L_T <= S_min + 16*sqrt(T log r), and the\n"
              "misreporter's w_misreport score (+1 per correct checked label,\n"
              "-1 per wrong one) must fall below every honest collector's.");
  Table table({"q", "T", "loss_L", "bound", "ratio", "byz_score", "min_honest"});
  table.print_header();
  const std::size_t rounds = 12;
  struct Row {
    double q = 0.0, loss = 0.0, bound = 0.0;
    std::uint64_t t = 0;
    std::int64_t byz_score = 0, min_honest = 0;
  };
  const std::vector<double> qs = {0.0, 0.1, 0.2, 0.3, 0.5};
  const std::vector<Row> rows =
      sweep().map<Row>(qs.size(), [rounds, &qs](std::size_t i) {
        const double q = qs[i];
        sim::ScenarioConfig cfg =
            base_config(8501 + static_cast<std::uint64_t>(q * 10), rounds);
        adversary::ByzantineCollectorSpec c;
        c.from_round = 1;
        c.until_round = rounds + 1;
        c.collector = 0;
        c.flip_probability = q;
        cfg.adversary.byzantine_collectors = {c};
        sim::Scenario s(cfg);
        s.run();
        const auto sum = s.summary();
        Row row;
        row.q = q;
        row.t = screened_txs(sum);
        row.bound =
            16.0 * std::sqrt(static_cast<double>(row.t) *
                             std::log(static_cast<double>(cfg.topology.collectors)));
        row.loss = sum.mean_governor_expected_loss;
        row.byz_score = s.governor(0).reputation().misreport(CollectorId(0));
        row.min_honest = std::numeric_limits<std::int64_t>::max();
        for (std::uint32_t k = 1; k < cfg.topology.collectors; ++k) {
          row.min_honest = std::min(
              row.min_honest, s.governor(0).reputation().misreport(CollectorId(k)));
        }
        return row;
      });
  for (const Row& row : rows) {
    table.row({fmt(row.q, 1), fmt_u(row.t), fmt(row.loss, 1), fmt(row.bound, 1),
               fmt(row.bound > 0 ? row.loss / row.bound : 0.0, 3),
               std::to_string(row.byz_score), std::to_string(row.min_honest)});
    json.row("misreport",
             {{"q", bench::jf(row.q, 2)},
              {"t", bench::ju(row.t)},
              {"loss", bench::jf(row.loss, 2)},
              {"bound", bench::jf(row.bound, 2)},
              {"ratio", bench::jf(row.bound > 0 ? row.loss / row.bound : 0.0, 4)},
              {"byz_misreport_score", std::to_string(row.byz_score)},
              {"min_honest_score", std::to_string(row.min_honest)}});
  }
  bench::note("\nq = 0.0 is the control: defenses on, nobody deviating. Loss\n"
              "grows with q but the ratio column must stay well under 1 — the\n"
              "reputation weights marginalize the misreporter before it can\n"
              "push screening anywhere near the worst-case bound.");
}

}  // namespace

int main() {
  std::printf("bench_adversary — E-ADV: in-protocol Byzantine attacks vs their "
              "paired defenses\n");
  bench::JsonReport json("adversary", 7101);
  equivocating_leader(json);
  punishment_soundness(json);
  creation_attacks(json);
  misreport_bound(json);
  json.write();
  return 0;
}
