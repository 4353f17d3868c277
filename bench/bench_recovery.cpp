// Recovery-path costs of the storage subsystem: how the durable footprint
// (WAL vs snapshot bytes) and the crash-restart cost grow with chain height
// and snapshot cadence. For each point we run a full fixed-seed scenario
// with durable governors, then kill governor 0 after the last round and
// time its rebuild — recover_from_store (snapshot restore + WAL tail
// replay + chain audit) plus the peer catch-up sync — in wall-clock and in
// simulated rejoin latency.
//
// Expected shape: with snapshot_interval = 1 the snapshot dominates and
// recovery wall time stays flat in height; with snapshots off the WAL grows
// linearly and replay time with it. Rejoin latency is a few network RTTs
// regardless (the restarted replica is only syncing, not re-executing).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cluster/free_run.hpp"
#include "cluster/local_cluster.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace repchain;
using repchain::bench::fmt;
using repchain::bench::Table;

sim::ScenarioConfig base_config(std::size_t rounds, std::size_t snapshot_interval) {
  sim::ScenarioConfig cfg;
  cfg.topology = {8, 4, 3, 2};
  cfg.rounds = rounds;
  cfg.txs_per_provider_per_round = 3;
  cfg.p_valid = 0.8;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.85)};
  cfg.durable_governors = true;
  cfg.governor.snapshot_interval = snapshot_interval;
  cfg.seed = 31;
  return cfg;
}

struct Point {
  std::size_t rounds = 0;
  std::size_t snapshot_interval = 0;
  std::uint64_t height = 0;
  std::size_t wal_bytes = 0;
  std::size_t snapshot_bytes = 0;
  double recover_ms = 0.0;     // wall-clock: recover_from_store + sync_chain
  double rejoin_sim_ms = 0.0;  // simulated time until the sync settles
  std::uint64_t blocks_synced = 0;
};

/// Run the scenario to completion, then crash + restart governor 0 and
/// measure the recovery. `dir` empty => in-memory store backend.
Point measure(std::size_t rounds, std::size_t snapshot_interval,
              const std::filesystem::path& dir) {
  sim::ScenarioConfig cfg = base_config(rounds, snapshot_interval);
  cfg.storage_dir = dir;
  sim::Scenario s(cfg);
  s.run();

  Point p;
  p.rounds = rounds;
  p.snapshot_interval = snapshot_interval;
  p.wal_bytes = s.governor_store(0)->wal_bytes();
  p.snapshot_bytes = s.governor_store(0)->snapshot_bytes();

  s.crash_governor(0);
  const auto t0 = std::chrono::steady_clock::now();
  s.restart_governor(0);
  p.recover_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  const SimTime sim0 = s.queue().now();
  s.queue().run();  // let the catch-up sync settle
  p.rejoin_sim_ms =
      static_cast<double>(s.queue().now() - sim0) / static_cast<double>(kMillisecond);
  p.height = s.governor(0).chain().height();
  p.blocks_synced = s.governor(0).metrics().blocks_synced;
  return p;
}

void sweep(bench::JsonReport& json) {
  bench::section("recovery cost vs chain height and snapshot cadence (in-memory store)");
  Table table({"rounds", "snap_every", "height", "wal_B", "snap_B", "recover_ms",
               "rejoin_sim_ms"});
  table.print_header();
  for (std::size_t interval : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    for (std::size_t rounds : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                               std::size_t{32}}) {
      const Point p = measure(rounds, interval, {});
      table.row({std::to_string(p.rounds),
                 interval == 0 ? "never" : std::to_string(interval),
                 std::to_string(p.height), std::to_string(p.wal_bytes),
                 std::to_string(p.snapshot_bytes), fmt(p.recover_ms, 3),
                 fmt(p.rejoin_sim_ms, 1)});
      json.row("height_sweep",
               {{"rounds", bench::ju(p.rounds)},
                {"snapshot_interval", bench::ju(p.snapshot_interval)},
                {"height", bench::ju(p.height)},
                {"wal_bytes", bench::ju(p.wal_bytes)},
                {"snapshot_bytes", bench::ju(p.snapshot_bytes)},
                {"recover_wall_ms", bench::jf(p.recover_ms, 4)},
                {"rejoin_sim_ms", bench::jf(p.rejoin_sim_ms, 2)},
                {"blocks_synced", bench::ju(p.blocks_synced)}});
    }
  }
}

void file_backed(bench::JsonReport& json) {
  bench::section("file-backed store (fsync + rename on the real filesystem)");
  const auto dir = std::filesystem::temp_directory_path() / "repchain_bench_recovery";
  Table table({"rounds", "snap_every", "wal_B", "snap_B", "recover_ms"});
  table.print_header();
  for (std::size_t rounds : {std::size_t{8}, std::size_t{32}}) {
    std::filesystem::remove_all(dir);
    const Point p = measure(rounds, 4, dir);
    table.row({std::to_string(p.rounds), "4", std::to_string(p.wal_bytes),
               std::to_string(p.snapshot_bytes), fmt(p.recover_ms, 3)});
    json.row("file_backed",
             {{"rounds", bench::ju(p.rounds)},
              {"snapshot_interval", bench::ju(p.snapshot_interval)},
              {"height", bench::ju(p.height)},
              {"wal_bytes", bench::ju(p.wal_bytes)},
              {"snapshot_bytes", bench::ju(p.snapshot_bytes)},
              {"recover_wall_ms", bench::jf(p.recover_ms, 4)}});
  }
  std::filesystem::remove_all(dir);
}

// --- live-cluster restart (free-running cluster) ----------------------------

/// One supervised free-running cluster run over loopback processes: every
/// node self-drives rounds on real clocks over the peer mesh while the
/// observer executes the config's crash schedule (SIGKILL, respawn from the
/// node's persisted state directory). Returns the contract report and the
/// run's wall time.
struct FreeRun {
  cluster::FreeRunReport report;
  double wall_ms = 0.0;
};

FreeRun run_free(const std::filesystem::path& node_bin,
                 const sim::ScenarioConfig& cfg, std::uint16_t peer_base) {
  cluster::LocalCluster nodes(cfg, {.node_bin = node_bin.string(),
                                    .peer_base = peer_base});
  cluster::FreeRunDriver driver(cfg, nodes, /*grace_rounds=*/6);
  FreeRun run;
  const auto t0 = std::chrono::steady_clock::now();
  run.report = driver.run();
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return run;
}

/// The free-running variant of base_config, killing per `kills` (each
/// victim as its crash round's collecting phase opens): the node processes
/// persist themselves, so the in-process durability switch stays off.
sim::ScenarioConfig free_config(std::size_t rounds,
                                std::vector<sim::CrashPlan> kills) {
  sim::ScenarioConfig cfg = cluster::free_run_config(base_config(rounds, 2));
  cfg.durable_governors = false;
  return cluster::with_kills(std::move(cfg), std::move(kills));
}

/// Live-cluster restart cost: one process per governor over loopback TCP,
/// SIGKILL governor 0 mid-round 2, respawn it from its persisted state
/// directory halfway through, and take the free-run observer's own timeline
/// (kill instant, rejoin instant, converged round) as the measurement.
void cluster_restart(bench::JsonReport& json,
                     const std::filesystem::path& node_bin,
                     std::uint16_t& peer_base) {
  bench::section("live-cluster SIGKILL + restart (free-running loopback processes)");
  Table table({"rounds", "kill@", "restart@", "rejoin_ms", "conv_rounds",
               "attempts", "wall_ms"});
  table.print_header();
  for (std::size_t rounds : {std::size_t{6}, std::size_t{10}}) {
    const sim::ScenarioConfig cfg = free_config(
        rounds, {{.governor = 0, .crash_round = 2, .restart_round = rounds / 2 + 1}});
    const sim::CrashPlan& plan = cfg.crashes.front();
    const FreeRun run = run_free(node_bin, cfg, peer_base);
    peer_base = static_cast<std::uint16_t>(peer_base + 64);
    const cluster::FreeRunReport& r = run.report;

    const double rejoin_ms = static_cast<double>(r.rejoined_at - r.killed_at) /
                             static_cast<double>(kMillisecond);
    const std::uint64_t rounds_to_converge =
        r.converged ? r.converged_round - plan.restart_round + 1 : 0;
    table.row({std::to_string(rounds), std::to_string(plan.crash_round),
               std::to_string(plan.restart_round), fmt(rejoin_ms, 1),
               std::to_string(rounds_to_converge),
               std::to_string(r.restart_attempts), fmt(run.wall_ms, 1)});
    json.row("cluster_restart",
             {{"rounds", bench::ju(rounds)},
              {"kill_round", bench::ju(plan.crash_round)},
              {"restart_round", bench::ju(plan.restart_round)},
              {"converged", r.converged ? "true" : "false"},
              {"contract_ok", r.ok() ? "true" : "false"},
              {"rejoin_ms", bench::jf(rejoin_ms, 2)},
              {"rounds_to_converge", bench::ju(rounds_to_converge)},
              {"restart_attempts", bench::ju(r.restart_attempts)},
              {"converge_wall_ms", bench::jf(run.wall_ms, 2)},
              {"head_serial", bench::ju(r.head_serial)},
              {"committed_txs", bench::ju(r.committed_txs)}});
  }
}

/// Free-running multi-crash cost: overlapping victims die and return. The
/// single crash keeps quorum; the double crash drops the 3-governor
/// committee to a lone survivor, so the series also prices the quorum-loss
/// stall window (watchdog span) against the post-respawn recovery rounds.
void free_run_multi_crash(bench::JsonReport& json,
                          const std::filesystem::path& node_bin,
                          std::uint16_t& peer_base) {
  bench::section("free-running cluster, overlapping crash schedules");
  struct Series {
    const char* name;
    std::vector<sim::CrashPlan> plans;
  };
  const sim::CrashPlan one{.governor = 1, .crash_round = 2, .restart_round = 4};
  const sim::CrashPlan two{.governor = 2, .crash_round = 2, .restart_round = 3};
  const std::vector<Series> series = {
      {"single_crash", {one}},
      // Victims 1 and 2 overlap in round 2: 1 of 3 alive < quorum 2.
      {"quorum_breaking", {one, two}},
  };

  Table table({"schedule", "min_live", "quorum_lost", "stalls", "stall_ms",
               "recover_rounds", "attempts", "wall_ms"});
  table.print_header();
  for (const Series& sr : series) {
    const sim::ScenarioConfig cfg = free_config(6, sr.plans);
    const std::size_t governors = cfg.topology.governors;
    const std::size_t min_live =
        cluster::min_live_governors(cfg.crashes, governors, cfg.rounds);
    const FreeRun run = run_free(node_bin, cfg, peer_base);
    peer_base = static_cast<std::uint16_t>(peer_base + 64);
    const cluster::FreeRunReport& r = run.report;

    const cluster::DegradationReport& d = r.degradation;
    const double stall_ms =
        d.stalled_events == 0
            ? 0.0
            : static_cast<double>(d.stall_last - d.stall_first) /
                  static_cast<double>(kMillisecond);
    table.row({sr.name, std::to_string(d.min_live),
               d.quorum_lost ? "yes" : "no", std::to_string(d.stalled_events),
               fmt(stall_ms, 1), std::to_string(d.rounds_to_recover),
               std::to_string(r.restart_attempts), fmt(run.wall_ms, 1)});
    json.row("free_run_multi_crash",
             {{"schedule", bench::js(sr.name)},
              {"victims", bench::ju(sr.plans.size())},
              {"predicted_min_live", bench::ju(min_live)},
              {"observed_min_live", bench::ju(d.min_live)},
              {"quorum_lost", d.quorum_lost ? "true" : "false"},
              {"contract_ok", r.ok() ? "true" : "false"},
              {"stalled_events", bench::ju(d.stalled_events)},
              {"stall_span_ms", bench::jf(stall_ms, 2)},
              {"rounds_to_recover", bench::ju(d.rounds_to_recover)},
              {"restart_attempts", bench::ju(r.restart_attempts)},
              {"rounds_run", bench::ju(r.rounds_run)},
              {"head_serial", bench::ju(r.head_serial)},
              {"committed_txs", bench::ju(r.committed_txs)},
              {"wall_ms", bench::jf(run.wall_ms, 2)}});
  }
}

}  // namespace

int main() {
  std::printf("bench_recovery — durable footprint and crash-restart cost\n");
  bench::JsonReport json("recovery", 31);
  sweep(json);
  file_backed(json);
  const std::filesystem::path node_bin =
      cluster::beside_executable("../tools/node");
  if (std::filesystem::exists(node_bin)) {
    std::uint16_t peer_base = 23100;
    cluster_restart(json, node_bin, peer_base);
    free_run_multi_crash(json, node_bin, peer_base);
  } else {
    std::printf("  tools/node not built — skipping the live-cluster sections\n");
  }
  json.write();
  return 0;
}
