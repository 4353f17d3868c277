// Seeded chaos soak for CI: each seed derives a randomized fault schedule
// (burst loss, duplication, bounded reordering, a delay spike, usually a
// partition and sometimes a crash/restart) whose every window heals by
// round `rounds - 3`, then runs the full protocol with reliable delivery
// and checks the hard invariants:
//
//   - agreement: all governor chains share a prefix at the end;
//   - audit: every replica's chain passes the integrity/no-skipping audit;
//   - tail liveness: the last two (fault-free) rounds both commit a block,
//     i.e. the cluster recovered from whatever the schedule threw at it.
//
// `--byzantine` switches the fault model from omission to commission: each
// seed derives an in-protocol misbehavior plan (a Byzantine collector,
// usually an equivocating leader with outsized stake, sometimes a lying sync
// peer paired with an honest governor's crash/restart to force catch-up
// syncs against it, sometimes a double-spending provider) on an otherwise
// clean network, with the governors' Byzantine defenses on. Checks become:
//
//   - honest-prefix agreement: every *honest* governor pair shares a prefix
//     (an equivocator's self-committed fork is excluded, not forgiven);
//   - audit + tail liveness as above (windows end two rounds before the end);
//   - provable punishment: each attack that demonstrably fired (attack-side
//     counters) produced its paired detection — the equivocator expelled by
//     every honest replica, forged uploads and label equivocations counted,
//     lies to corroborating governors rejected, double-spends blacklisted —
//     and at least one kByzantineEvidence trace was emitted.
//
// The schedule is a pure function of the seed, so a CI failure reproduces
// locally with `chaos_soak [--byzantine] --base-seed=<seed>
// --chaos-seeds=1`. Exit code is the number of failing seeds (0 = all
// clean); an unknown flag or a malformed or out-of-range value prints the
// usage and exits 2.

#include <algorithm>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/flag_parse.hpp"
#include "common/rng.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace repchain;

struct Options {
  std::uint64_t seeds = 4;
  std::uint64_t base_seed = 90001;
  std::size_t rounds = 10;
  std::uint64_t jobs = 1;
  bool byzantine = false;
};

/// printf into a growing per-seed log. Seeds may run concurrently
/// (--jobs), so nothing inside a seed writes to stdout directly; the merged
/// logs are emitted in seed order, making the output identical for any job
/// count.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: chaos_soak [--byzantine] [--chaos-seeds=N (1..100000)] "
               "[--base-seed=S] [--rounds=R (>= 6)] "
               "[--jobs=N (0..256, 0 = one per core)]\n");
  std::exit(2);
}

/// Random half-open round window inside [2, heal): faults never touch round 1
/// (genesis stake setup) and always end before the fault-free tail.
struct Window {
  std::size_t from;
  std::size_t until;
};

Window draw_window(Rng& rng, std::size_t heal) {
  const std::size_t from = 2 + rng.uniform(2);  // 2 or 3
  const std::size_t until =
      from + 1 + rng.uniform(heal > from + 1 ? heal - from - 1 : 1);
  return {from, until < heal ? until : heal};
}

/// Derive this seed's fault plan. Every window ends by `heal`; probabilities
/// stay inside what the reliable channel and catch-up sync are specified to
/// mask (loss <= 20%, at most a minority-island partition).
sim::ScenarioConfig make_config(std::uint64_t seed, std::size_t rounds) {
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

  const std::size_t heal = rounds - 3;
  Rng chaos = Rng(seed).derive(0xC4A05);

  {
    sim::LossSpec loss;
    const Window w = draw_window(chaos, heal);
    loss.from_round = w.from;
    loss.until_round = w.until;
    loss.probability = 0.05 + 0.15 * chaos.uniform01();
    cfg.faults.losses = {loss};
  }
  if (chaos.bernoulli(0.7)) {
    sim::DuplicationSpec dup;
    const Window w = draw_window(chaos, heal);
    dup.from_round = w.from;
    dup.until_round = w.until;
    dup.probability = 0.1 + 0.3 * chaos.uniform01();
    cfg.faults.duplications = {dup};
  }
  if (chaos.bernoulli(0.7)) {
    sim::ReorderSpec reorder;
    const Window w = draw_window(chaos, heal);
    reorder.from_round = w.from;
    reorder.until_round = w.until;
    reorder.probability = 0.1 + 0.2 * chaos.uniform01();
    reorder.max_extra = (2 + chaos.uniform(3)) * kMillisecond;
    cfg.faults.reorders = {reorder};
  }
  if (chaos.bernoulli(0.5)) {
    sim::DelaySpikeSpec spike;
    const Window w = draw_window(chaos, heal);
    spike.from_round = w.from;
    spike.until_round = w.until;
    spike.extra = (1 + chaos.uniform(2)) * kMillisecond;
    spike.jitter = 1 * kMillisecond;
    cfg.faults.delay_spikes = {spike};
  }
  if (chaos.bernoulli(0.7)) {
    sim::PartitionSpec part;
    const Window w = draw_window(chaos, heal);
    part.from_round = w.from;
    part.until_round = w.until;
    const std::size_t first = chaos.uniform(cfg.topology.governors);
    part.governors = {first};
    if (chaos.bernoulli(0.3)) {
      // Two-governor island: splits the 4-governor quorum, so the majority
      // side stalls until the heal — the watchdog + catch-up path under test.
      part.governors.push_back((first + 1) % cfg.topology.governors);
    }
    cfg.faults.partitions = {part};
  }
  if (chaos.bernoulli(0.3)) {
    sim::CrashPlan crash;
    crash.governor = chaos.uniform(cfg.topology.governors);
    crash.crash_round = 3;
    crash.restart_round = 4;
    cfg.crashes = {crash};
  }
  return cfg;
}

/// Derive this seed's Byzantine plan: same topology and reliable delivery,
/// but a clean network — the adversary layer injects commission faults
/// inside the protocol and every deviation must be *caught*, not masked.
/// Windows end at rounds - 2 so the last two rounds prove recovery.
sim::ScenarioConfig make_byzantine_config(std::uint64_t seed, std::size_t rounds) {
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

  const std::size_t heal = rounds - 2;
  Rng byz = Rng(seed).derive(0xB12A);

  // The would-be equivocator gets outsized stake so it actually wins
  // elections inside its window. Governor 0 stays honest: it is the
  // RoundObserver's watched replica, whose commits drive the tail-liveness
  // check.
  const std::size_t equivocator = 1 + byz.uniform(3);
  cfg.governor_stakes.assign(cfg.topology.governors, 1);
  cfg.governor_stakes[equivocator] = 5;

  {
    // A Byzantine collector is always on the board: targeted misreports,
    // forged uploads, and (half the time) cross-governor label equivocation.
    adversary::ByzantineCollectorSpec c;
    c.from_round = 2;
    c.until_round = heal;
    c.collector = byz.uniform(cfg.topology.collectors);
    c.flip_probability = 0.2 + 0.3 * byz.uniform01();
    c.forge_probability = 0.1 + 0.2 * byz.uniform01();
    c.equivocate = byz.bernoulli(0.5);
    if (byz.bernoulli(0.5)) {
      c.flip_by_provider = {
          {static_cast<std::uint32_t>(byz.uniform(cfg.topology.providers)), 0.9}};
    }
    cfg.adversary.byzantine_collectors = {c};
  }
  if (byz.bernoulli(0.7)) {
    adversary::EquivocatingLeaderSpec e;
    e.from_round = 2;
    e.until_round = heal;
    e.governor = equivocator;
    cfg.adversary.equivocating_leaders = {e};
  }
  if (byz.bernoulli(0.5)) {
    // A lying sync peer is only interesting if somebody syncs against it:
    // pair it with a crash/restart of the remaining honest governor, whose
    // catch-up runs inside the lying window and must corroborate its way
    // past the liar.
    std::size_t liar = 1 + byz.uniform(3);
    if (liar == equivocator) liar = 1 + (liar % 3);
    adversary::LyingSyncSpec l;
    l.from_round = 2;
    l.until_round = heal;
    l.governor = liar;
    cfg.adversary.lying_sync_peers = {l};
    sim::CrashPlan crash;
    crash.governor = 6 - equivocator - liar;  // the third of {1,2,3}
    crash.crash_round = 3;
    crash.restart_round = 4;
    cfg.crashes = {crash};
  }
  if (byz.bernoulli(0.5)) {
    adversary::DoubleSpendSpec d;
    d.from_round = 2;
    d.until_round = heal;
    d.provider = byz.uniform(cfg.topology.providers);
    d.probability = 0.3 + 0.3 * byz.uniform01();
    cfg.adversary.double_spenders = {d};
  }
  return cfg;
}

/// Topology indices of governors scripted to commit *chain-level* Byzantine
/// faults (equivocating leaders self-commit a fork, so they are excluded
/// from the honest-prefix check; a lying sync peer's own chain stays honest).
std::set<std::size_t> byzantine_governors(const sim::ScenarioConfig& cfg) {
  std::set<std::size_t> out;
  for (const auto& e : cfg.adversary.equivocating_leaders) out.insert(e.governor);
  return out;
}

struct Verdict {
  bool ok = true;
  std::string why;
};

/// Compact one-line fault/adversary mix, printed for every seed (pass or
/// fail) so a soak log shows at a glance what each seed actually exercised.
std::string plan_line(const sim::ScenarioConfig& cfg) {
  char buf[128];
  std::string out;
  const auto add = [&out](const char* text) {
    if (!out.empty()) out += ' ';
    out += text;
  };
  for (const auto& l : cfg.faults.losses) {
    std::snprintf(buf, sizeof buf, "loss[%zu,%zu)p=%.2f", l.from_round, l.until_round,
                  l.probability);
    add(buf);
  }
  for (const auto& d : cfg.faults.duplications) {
    std::snprintf(buf, sizeof buf, "dup[%zu,%zu)p=%.2f", d.from_round, d.until_round,
                  d.probability);
    add(buf);
  }
  for (const auto& r : cfg.faults.reorders) {
    std::snprintf(buf, sizeof buf, "reorder[%zu,%zu)p=%.2f", r.from_round,
                  r.until_round, r.probability);
    add(buf);
  }
  for (const auto& ds : cfg.faults.delay_spikes) {
    std::snprintf(buf, sizeof buf, "spike[%zu,%zu)+%lluus", ds.from_round,
                  ds.until_round, static_cast<unsigned long long>(ds.extra));
    add(buf);
  }
  for (const auto& p : cfg.faults.partitions) {
    std::string island;
    for (const std::size_t g : p.governors) {
      if (!island.empty()) island += ',';
      island += 'g' + std::to_string(g);
    }
    std::snprintf(buf, sizeof buf, "partition{%s}[%zu,%zu)", island.c_str(),
                  p.from_round, p.until_round);
    add(buf);
  }
  for (const auto& e : cfg.adversary.equivocating_leaders) {
    std::snprintf(buf, sizeof buf, "equiv-leader g%zu [%zu,%zu)", e.governor,
                  e.from_round, e.until_round);
    add(buf);
  }
  for (const auto& l : cfg.adversary.lying_sync_peers) {
    std::snprintf(buf, sizeof buf, "lying-sync g%zu [%zu,%zu)", l.governor,
                  l.from_round, l.until_round);
    add(buf);
  }
  for (const auto& c : cfg.adversary.byzantine_collectors) {
    std::snprintf(buf, sizeof buf, "byz-collector c%zu flip=%.2f forge=%.2f%s%s",
                  c.collector, c.flip_probability, c.forge_probability,
                  c.equivocate ? " equiv" : "",
                  c.flip_by_provider.empty() ? "" : " targeted");
    add(buf);
  }
  for (const auto& d : cfg.adversary.double_spenders) {
    std::snprintf(buf, sizeof buf, "double-spend p%zu p=%.2f [%zu,%zu)", d.provider,
                  d.probability, d.from_round, d.until_round);
    add(buf);
  }
  for (const auto& c : cfg.crashes) {
    std::snprintf(buf, sizeof buf, "crash g%zu @%zu->%zu", c.governor, c.crash_round,
                  c.restart_round);
    add(buf);
  }
  if (out.empty()) out = "clean";
  return out;
}

Verdict check(sim::Scenario& s, const sim::ScenarioConfig& cfg) {
  const auto sum = s.summary();
  Verdict v;
  if (!sum.agreement) {
    v.ok = false;
    v.why += " governors diverged;";
  }
  if (!sum.chains_audit_ok) {
    v.ok = false;
    v.why += " chain audit failed;";
  }
  for (Round r = static_cast<Round>(cfg.rounds) - 1;
       r <= static_cast<Round>(cfg.rounds); ++r) {
    if (!s.observer().commit_at(r)) {
      v.ok = false;
      v.why += " round " + std::to_string(r) + " stalled after heal;";
    }
  }
  return v;
}

/// Byzantine-mode verdict: safety among honest replicas plus the provable
/// punishment gates — every attack whose attack-side counters show it fired
/// must have produced its paired detection.
Verdict check_byzantine(sim::Scenario& s, const sim::ScenarioConfig& cfg) {
  Verdict v;
  const auto fail = [&v](const std::string& why) {
    v.ok = false;
    v.why += ' ';
    v.why += why;
    v.why += ';';
  };
  const std::set<std::size_t> byz = byzantine_governors(cfg);

  // Safety: honest replicas never fork, and every honest chain audits.
  const protocol::Governor* ref = nullptr;
  for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
    if (byz.contains(g) || s.governors()[g] == nullptr) continue;
    const auto& gov = s.governor(g);
    if (!gov.chain().audit()) fail("governor " + std::to_string(g) + " audit failed");
    if (ref == nullptr) {
      ref = &gov;
    } else if (!ledger::ChainStore::same_prefix(ref->chain(), gov.chain())) {
      fail("honest governors forked (governor " + std::to_string(g) + ")");
    }
  }

  // Tail liveness on the watched (honest) replica: the last two rounds lie
  // beyond every adversary window and must both commit.
  for (Round r = static_cast<Round>(cfg.rounds) - 1; r <= static_cast<Round>(cfg.rounds);
       ++r) {
    if (!s.observer().commit_at(r)) {
      fail("round " + std::to_string(r) + " stalled after heal");
    }
  }

  // Attack-side tallies: what the scripted adversaries actually did.
  std::uint64_t equivocations_sent = 0, lies_to_governors = 0;
  std::uint64_t detected_proposal_equiv = 0, lying_rejected = 0, double_spends = 0;
  std::uint64_t forgeries_detected = 0, label_equivocations = 0, evidence = 0;
  for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
    if (s.governors()[g] == nullptr) continue;
    const auto& m = s.governor(g).metrics();
    equivocations_sent += m.byzantine_equivocations_sent;
    lies_to_governors += m.byzantine_lies_to_governors;
    if (!byz.contains(g)) {
      detected_proposal_equiv += m.proposal_equivocations;
      lying_rejected += m.lying_sync_rejected;
      double_spends += m.double_spends_detected;
      forgeries_detected += m.forgeries_detected;
      label_equivocations += m.equivocations_detected;
      evidence += m.byzantine_evidence;
    }
  }
  std::uint64_t forged = 0, equivocated_uploads = 0;
  for (const auto& c : cfg.adversary.byzantine_collectors) {
    forged += s.collectors()[c.collector].stats().forged;
    equivocated_uploads += s.collectors()[c.collector].stats().equivocated;
  }
  std::uint64_t double_spends_submitted = 0;
  for (const auto& d : cfg.adversary.double_spenders) {
    double_spends_submitted += s.providers()[d.provider].double_spends_submitted();
  }

  // Provable punishment: detections must match the attacks that fired.
  if (equivocations_sent > 0) {
    if (detected_proposal_equiv == 0) fail("proposal equivocation undetected");
    for (const auto& e : cfg.adversary.equivocating_leaders) {
      const GovernorId accused(static_cast<std::uint32_t>(e.governor));
      for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
        if (byz.contains(g) || s.governors()[g] == nullptr) continue;
        if (!s.governor(g).expelled().contains(accused)) {
          fail("governor " + std::to_string(g) + " did not expel equivocator");
        }
      }
    }
  }
  if (lies_to_governors > 0 && lying_rejected == 0) {
    fail("lying sync peer served governors but was never rejected");
  }
  if (forged > 0 && forgeries_detected == 0) fail("forged uploads undetected");
  if (equivocated_uploads > 0 && label_equivocations == 0) {
    fail("label equivocation undetected");
  }
  if (double_spends_submitted > 0 && double_spends == 0) {
    fail("double spends undetected");
  }
  const bool any_attack = equivocations_sent + lies_to_governors + forged +
                              equivocated_uploads + double_spends_submitted >
                          0;
  if (any_attack && evidence == 0) fail("no kByzantineEvidence emitted");
  return v;
}

/// Failure diagnostics: the derived fault plan plus each replica's final
/// height and sync counters, enough to reproduce and localize without rerun.
void dump_failure(std::string& out, const sim::ScenarioConfig& cfg, sim::Scenario& s) {
  for (const auto& l : cfg.faults.losses) {
    appendf(out, "    plan: loss p=%.3f rounds [%zu,%zu)\n", l.probability,
            l.from_round, l.until_round);
  }
  for (const auto& d : cfg.faults.duplications) {
    appendf(out, "    plan: dup p=%.3f rounds [%zu,%zu)\n", d.probability,
            d.from_round, d.until_round);
  }
  for (const auto& r : cfg.faults.reorders) {
    appendf(out, "    plan: reorder p=%.3f max_extra=%lluus rounds [%zu,%zu)\n",
            r.probability, static_cast<unsigned long long>(r.max_extra),
            r.from_round, r.until_round);
  }
  for (const auto& ds : cfg.faults.delay_spikes) {
    appendf(out, "    plan: spike extra=%lluus jitter=%lluus rounds [%zu,%zu)\n",
            static_cast<unsigned long long>(ds.extra),
            static_cast<unsigned long long>(ds.jitter), ds.from_round,
            ds.until_round);
  }
  for (const auto& p : cfg.faults.partitions) {
    appendf(out, "    plan: partition governors={");
    for (std::size_t g : p.governors) appendf(out, " %zu", g);
    appendf(out, " } rounds [%zu,%zu)\n", p.from_round, p.until_round);
  }
  for (const auto& c : cfg.crashes) {
    appendf(out, "    plan: crash governor %zu round %zu, restart round %zu\n",
            c.governor, c.crash_round, c.restart_round);
  }
  for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
    if (s.governors()[g] == nullptr) {
      appendf(out, "    governor %zu: dead\n", g);
      continue;
    }
    const auto& gov = s.governor(g);
    std::string expelled;
    for (const auto id : gov.expelled()) {
      expelled += ' ';
      expelled += std::to_string(id.value());
    }
    appendf(out,
            "    governor %zu: height=%llu synced=%llu sync_timeouts=%llu "
            "prop_equiv=%llu evidence=%llu equiv_sent=%llu lies=%llu expelled={%s }\n",
            g, static_cast<unsigned long long>(gov.chain().height()),
            static_cast<unsigned long long>(gov.metrics().blocks_synced),
            static_cast<unsigned long long>(gov.metrics().sync_timeouts),
            static_cast<unsigned long long>(gov.metrics().proposal_equivocations),
            static_cast<unsigned long long>(gov.metrics().byzantine_evidence),
            static_cast<unsigned long long>(gov.metrics().byzantine_equivocations_sent),
            static_cast<unsigned long long>(gov.metrics().byzantine_lies_served),
            expelled.c_str());
  }
  for (const auto& rec : s.history()) {
    appendf(out, "    round %llu: leader=%s block_txs=%zu\n",
            static_cast<unsigned long long>(rec.round),
            rec.leader ? std::to_string(rec.leader->value()).c_str() : "-",
            rec.block_txs);
  }
}

/// One fully-isolated shard: build, run, check, and render the log for a
/// single seed. Everything it touches is local, so shards run on any worker
/// thread of a ParallelSweep without synchronization.
struct SeedResult {
  bool ok = true;
  std::string log;
};

SeedResult run_seed(const Options& opt, std::uint64_t index) {
  const std::uint64_t seed = opt.base_seed + index;
  const sim::ScenarioConfig cfg = opt.byzantine
                                      ? make_byzantine_config(seed, opt.rounds)
                                      : make_config(seed, opt.rounds);
  sim::Scenario s(cfg);
  s.run();
  const Verdict v = opt.byzantine ? check_byzantine(s, cfg) : check(s, cfg);
  const auto sum = s.summary();

  std::uint64_t retransmits = 0;
  for (std::size_t g = 0; g < cfg.topology.governors; ++g) {
    if (s.governors()[g] != nullptr) {
      if (const auto* ch = s.governor(g).channel()) {
        retransmits += ch->stats().retransmits;
      }
    }
  }
  std::uint64_t drops = 0;
  if (const auto* fs = s.fault_stats()) {
    drops = fs->loss_drops + fs->partition_drops;
  }

  SeedResult result;
  result.ok = v.ok;
  appendf(result.log,
          "  seed %llu: blocks=%llu drops=%llu retransmits=%llu stalled=%llu "
          "evidence=%llu -> %s%s\n",
          static_cast<unsigned long long>(seed),
          static_cast<unsigned long long>(sum.blocks),
          static_cast<unsigned long long>(drops),
          static_cast<unsigned long long>(retransmits),
          static_cast<unsigned long long>(sum.stalled_events),
          static_cast<unsigned long long>(sum.byzantine_evidence),
          v.ok ? "OK" : "FAIL:", v.why.c_str());
  appendf(result.log, "    mix: %s\n", plan_line(cfg).c_str());
  if (!v.ok) dump_failure(result.log, cfg, s);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--byzantine") {
      opt.byzantine = true;
    } else if (arg.rfind("--chaos-seeds=", 0) == 0) {
      opt.seeds = flag_value("--chaos-seeds", arg.c_str() + 14, 1L, 100000L, usage);
    } else if (arg.rfind("--base-seed=", 0) == 0) {
      opt.base_seed = flag_value("--base-seed", arg.c_str() + 12, 0L, LONG_MAX, usage);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      // Fault windows heal by round `rounds - 3`, so a soak needs 6 rounds.
      opt.rounds = flag_value("--rounds", arg.c_str() + 9, 6L, LONG_MAX, usage);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      opt.jobs = flag_value("--jobs", arg.c_str() + 7, 0L, 256L, usage);
    } else {
      std::fprintf(stderr, "chaos_soak: unknown flag %s\n", arg.c_str());
      usage();
    }
  }

  std::printf("chaos_soak: %s%llu seed(s) from %llu, %zu rounds each\n",
              opt.byzantine ? "byzantine mode, " : "",
              static_cast<unsigned long long>(opt.seeds),
              static_cast<unsigned long long>(opt.base_seed), opt.rounds);

  // Shard the seeds over the worker pool; results are merged in seed order,
  // so stdout is byte-identical for any --jobs value (the jobs note goes to
  // stderr for exactly that reason).
  const sim::ParallelSweep sweep(static_cast<std::size_t>(opt.jobs));
  if (sweep.jobs() > 1) {
    std::fprintf(stderr, "chaos_soak: running %zu seed shards on %zu threads\n",
                 static_cast<std::size_t>(opt.seeds), sweep.jobs());
  }
  const std::vector<SeedResult> results = sweep.map<SeedResult>(
      static_cast<std::size_t>(opt.seeds),
      [&opt](std::size_t i) { return run_seed(opt, i); });

  int failures = 0;
  for (const SeedResult& result : results) {
    std::fputs(result.log.c_str(), stdout);
    if (!result.ok) ++failures;
  }

  if (failures > 0) {
    std::printf("chaos_soak: %d of %llu seeds FAILED\n", failures,
                static_cast<unsigned long long>(opt.seeds));
  } else {
    std::printf("chaos_soak: all seeds clean\n");
  }
  return failures;
}
