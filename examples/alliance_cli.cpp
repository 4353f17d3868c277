// alliance_cli — run a configurable RepChain scenario from the command line.
//
//   alliance_cli [--providers N] [--collectors N] [--governors N] [--r N]
//                [--rounds N] [--txs N] [--p-valid F] [--f F] [--beta F]
//                [--seed N] [--adversaries N] [--concealers N] [--forgers N]
//                [--equivocators N] [--gossip] [--visibility F] [--quiet]
//
// Remaining collectors are honest. Prints the scenario summary, per-governor
// screening statistics and the collector standings. An unknown flag or a
// malformed or out-of-range value prints the usage and exits 2.

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flag_parse.hpp"
#include "sim/scenario.hpp"

using namespace repchain;
using protocol::CollectorBehavior;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --providers N     providers l (default 8)\n"
      "  --collectors N    collectors n (default 4)\n"
      "  --governors N     governors m (default 3)\n"
      "  --r N             collectors per provider (default 2)\n"
      "  --rounds N        rounds to run (default 10)\n"
      "  --txs N           txs per provider per round (default 2)\n"
      "  --p-valid F       ground-truth valid fraction (default 0.8)\n"
      "  --f F             screening efficiency knob (default 0.5)\n"
      "  --beta F          reputation discount beta (default 0.9)\n"
      "  --seed N          scenario seed (default 1)\n"
      "  --adversaries N   label-inverting collectors (default 0)\n"
      "  --concealers N    collectors dropping 50%% of txs (default 0)\n"
      "  --forgers N       collectors forging 30%% extra txs (default 0)\n"
      "  --equivocators N  collectors equivocating across governors (default 0)\n"
      "  --gossip          enable equivocation-detection label gossip\n"
      "  --visibility F    fraction of collectors each governor sees (default 1)\n"
      "  --quiet           summary only\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  sim::ScenarioConfig cfg;
  cfg.topology = {8, 4, 3, 2};
  cfg.rounds = 10;
  std::size_t adversaries = 0, concealers = 0, forgers = 0, equivocators = 0;
  bool quiet = false;

  auto help = [&] { usage(argv[0]); };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* flag = arg.c_str();
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    // Counts are integers (topology tiers >= 1); p-valid, f, beta and
    // visibility are fractions in [0, 1].
    if (arg == "--providers") {
      cfg.topology.providers = flag_value(flag, next(), 1L, LONG_MAX, help);
    } else if (arg == "--collectors") {
      cfg.topology.collectors = flag_value(flag, next(), 1L, LONG_MAX, help);
    } else if (arg == "--governors") {
      cfg.topology.governors = flag_value(flag, next(), 1L, LONG_MAX, help);
    } else if (arg == "--r") {
      cfg.topology.r = flag_value(flag, next(), 1L, LONG_MAX, help);
    } else if (arg == "--rounds") {
      cfg.rounds = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--txs") {
      cfg.txs_per_provider_per_round = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--p-valid") {
      cfg.p_valid = flag_value(flag, next(), 0.0, 1.0, help);
    } else if (arg == "--f") {
      cfg.governor.rep.f = flag_value(flag, next(), 0.0, 1.0, help);
    } else if (arg == "--beta") {
      cfg.governor.rep.beta = flag_value(flag, next(), 0.0, 1.0, help);
    } else if (arg == "--seed") {
      cfg.seed = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--adversaries") {
      adversaries = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--concealers") {
      concealers = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--forgers") {
      forgers = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--equivocators") {
      equivocators = flag_value(flag, next(), 0L, LONG_MAX, help);
    } else if (arg == "--gossip") {
      cfg.enable_label_gossip = true;
    } else if (arg == "--visibility") {
      cfg.governor_visibility = flag_value(flag, next(), 0.0, 1.0, help);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0]);
    }
  }

  const std::size_t bad = adversaries + concealers + forgers + equivocators;
  if (bad > cfg.topology.collectors) {
    std::fprintf(stderr, "more misbehaving collectors than collectors\n");
    return 2;
  }
  for (std::size_t i = 0; i < adversaries; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::adversarial());
  }
  for (std::size_t i = 0; i < concealers; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::concealing(0.5));
  }
  for (std::size_t i = 0; i < forgers; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::forging(0.3));
  }
  for (std::size_t i = 0; i < equivocators; ++i) {
    cfg.behaviors.push_back(CollectorBehavior::equivocating());
  }
  while (!cfg.behaviors.empty() && cfg.behaviors.size() < cfg.topology.collectors) {
    cfg.behaviors.push_back(CollectorBehavior::honest());
  }

  try {
    sim::Scenario scenario(cfg);
    scenario.run();
    const auto s = scenario.summary();

    std::printf("l=%zu n=%zu m=%zu r=%zu s=%zu | rounds=%zu f=%.2f beta=%.2f seed=%llu\n",
                cfg.topology.providers, cfg.topology.collectors, cfg.topology.governors,
                cfg.topology.r, cfg.topology.s(), cfg.rounds, cfg.governor.rep.f,
                cfg.governor.rep.beta, static_cast<unsigned long long>(cfg.seed));
    std::printf("txs=%llu blocks=%llu valid=%llu unchecked=%llu argued=%llu "
                "validations=%llu\n",
                static_cast<unsigned long long>(s.txs_submitted),
                static_cast<unsigned long long>(s.blocks),
                static_cast<unsigned long long>(s.chain_valid_txs),
                static_cast<unsigned long long>(s.chain_unchecked_txs),
                static_cast<unsigned long long>(s.chain_argued_txs),
                static_cast<unsigned long long>(s.validations_total));
    std::printf("agreement=%s audit=%s messages=%llu (%llu dropped)\n",
                s.agreement ? "yes" : "NO", s.chains_audit_ok ? "pass" : "FAIL",
                static_cast<unsigned long long>(s.network.messages_sent),
                static_cast<unsigned long long>(s.network.messages_dropped));
    if (quiet) return s.agreement && s.chains_audit_ok ? 0 : 1;

    std::printf("\nper-governor screening:\n");
    for (auto& g : scenario.governors()) {
      const auto& st = g->screening_stats();
      std::printf("  governor %u: screened=%llu checked=%llu unchecked=%llu "
                  "mistakes=%llu forgeries=%llu equivocations=%llu\n",
                  g->id().value(), static_cast<unsigned long long>(st.screened),
                  static_cast<unsigned long long>(st.checked),
                  static_cast<unsigned long long>(st.unchecked),
                  static_cast<unsigned long long>(g->metrics().mistakes),
                  static_cast<unsigned long long>(g->metrics().forgeries_detected),
                  static_cast<unsigned long long>(g->metrics().equivocations_detected));
    }

    std::printf("\ncollector standings (governor 0):\n");
    for (const auto& [c, share] : scenario.governor(0).revenue_shares()) {
      std::printf("  collector %u: share=%6.2f%% misreport=%+lld forge=%+lld "
                  "reward=%.2f\n",
                  c.value(), share * 100.0,
                  static_cast<long long>(
                      scenario.governor(0).reputation().misreport(c)),
                  static_cast<long long>(
                      scenario.governor(0).reputation().forge(c)),
                  scenario.collector_rewards()[c.value()]);
    }
    return s.agreement && s.chains_audit_ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
