// Experiment E7 (§1, §3.4.1): the efficiency/correctness trade of f. Larger
// f => fewer validations (faster protocol), more unchecked transactions
// (more governor mistakes). Includes google-benchmark timings of the
// screening hot path and a sweep table with the check-all baseline as the
// f -> 0 anchor.
//
// Expected shape: validations per transaction fall monotonically in f while
// loss rises; the reputation mechanism keeps the loss increase far below
// the f-proportional worst case once weights converge.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "baselines/policies.hpp"
#include "baselines/policy_simulator.hpp"
#include "bench_util.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/tcp_transport.hpp"
#include "sim/parallel_sweep.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace repchain;
using repchain::bench::fmt;
using repchain::bench::Table;

baselines::PolicyWorkloadConfig workload(std::size_t n) {
  baselines::PolicyWorkloadConfig w;
  w.transactions = n;
  w.p_valid = 0.5;
  w.collectors = {{1.0, 0.0, 0.0}, {0.85, 0.0, 0.0}, {0.7, 0.0, 0.1}, {1.0, 1.0, 0.0}};
  w.seed = 11;
  return w;
}

void f_sweep_table() {
  bench::section("E7a: validations and loss vs f (policy simulator, N = 20000)");
  Table table({"policy", "f", "validations/tx", "loss", "mistakes"});
  table.print_header();
  {
    baselines::CheckAllPolicy all;
    const auto r = run_policy(all, workload(20000));
    table.row({"check-all", "0.0",
               fmt(static_cast<double>(r.validations) / r.transactions, 3),
               fmt(r.loss, 1), std::to_string(r.mistakes)});
  }
  for (double f : {0.2, 0.4, 0.6, 0.8, 0.95}) {
    reputation::ReputationParams params;
    params.f = f;
    baselines::ReputationPolicy policy(params, 4, 1);
    const auto r = run_policy(policy, workload(20000));
    table.row({"reputation", fmt(f, 2),
               fmt(static_cast<double>(r.validations) / r.transactions, 3),
               fmt(r.loss, 1), std::to_string(r.mistakes)});
  }
}

void f_sweep_protocol() {
  bench::section("E7b: full-protocol validations vs f (8x4x3 topology, 10 rounds)");
  Table table({"f", "oracle validations", "unchecked", "gov-0 mistakes"});
  table.print_header();
  for (double f : {0.2, 0.5, 0.8}) {
    sim::ScenarioConfig cfg;
    cfg.topology = {8, 4, 3, 2};
    cfg.rounds = 10;
    cfg.txs_per_provider_per_round = 3;
    cfg.p_valid = 0.5;
    cfg.governor.rep.f = f;
    cfg.behaviors = {protocol::CollectorBehavior::honest(),
                     protocol::CollectorBehavior::noisy(0.8)};
    cfg.seed = 12;
    sim::Scenario s(cfg);
    s.run();
    table.row({fmt(f, 1), std::to_string(s.summary().validations_total),
               std::to_string(s.governor(0).screening_stats().unchecked),
               std::to_string(s.governor(0).metrics().mistakes)});
  }
}

// Machine-readable summary for dashboards/CI trend lines: one full-protocol
// run, timed wall-clock, dumped as flat JSON. The file name matches the
// BENCH_*.json gitignore pattern.
void write_json_summary(bench::JsonReport& json) {
  sim::ScenarioConfig cfg;
  cfg.topology = {8, 4, 3, 2};
  cfg.rounds = 10;
  cfg.txs_per_provider_per_round = 3;
  cfg.p_valid = 0.5;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.8)};
  cfg.seed = 12;
  sim::Scenario s(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  s.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto sum = s.summary();
  const double sim_s =
      static_cast<double>(s.queue().now()) / (1000.0 * kMillisecond);
  json.field("providers", bench::ju(cfg.topology.providers))
      .field("collectors", bench::ju(cfg.topology.collectors))
      .field("governors", bench::ju(cfg.topology.governors))
      .field("rounds", bench::ju(cfg.rounds))
      .field("txs_submitted", bench::ju(sum.txs_submitted))
      .field("chain_valid_txs", bench::ju(sum.chain_valid_txs))
      .field("validations_total", bench::ju(sum.validations_total))
      .field("messages_sent", bench::ju(sum.network.messages_sent))
      .field("bytes_sent", bench::ju(sum.network.bytes_sent))
      .field("sim_seconds", bench::jf(sim_s))
      .field("txs_per_sim_second",
             bench::jf(static_cast<double>(sum.txs_submitted) / sim_s, 3))
      .field("wall_seconds", bench::jf(wall_s))
      .field("txs_per_wall_second",
             bench::jf(static_cast<double>(sum.txs_submitted) / wall_s, 1));
}

// --- E7d: multi-core seed sweep (ParallelSweep) -------------------------------

/// One sweep shard: a full fault-free protocol run at `seed`.
sim::ScenarioSummary sweep_shard(std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.topology = {8, 4, 3, 2};
  cfg.rounds = 10;
  cfg.txs_per_provider_per_round = 3;
  cfg.p_valid = 0.5;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.8)};
  cfg.seed = seed;
  sim::Scenario s(cfg);
  s.run();
  return s.summary();
}

/// The per-seed facts the equivalence check compares (a summary digest; any
/// divergence between serial and sharded execution shows up here first).
bool same_outcome(const sim::ScenarioSummary& a, const sim::ScenarioSummary& b) {
  return a.txs_submitted == b.txs_submitted && a.blocks == b.blocks &&
         a.chain_valid_txs == b.chain_valid_txs &&
         a.chain_unchecked_txs == b.chain_unchecked_txs &&
         a.validations_total == b.validations_total &&
         a.network.messages_sent == b.network.messages_sent &&
         a.network.bytes_sent == b.network.bytes_sent &&
         a.mean_governor_expected_loss == b.mean_governor_expected_loss;
}

void parallel_sweep_speedup(bench::JsonReport& json) {
  constexpr std::size_t kSweepSeeds = 8;
  constexpr std::uint64_t kSweepBase = 500;
  const std::size_t jobs =
      std::min<std::size_t>(kSweepSeeds, sim::ParallelSweep::resolve_jobs(0));
  bench::section("E7d: 8-way seed sweep, serial vs " + std::to_string(jobs) +
                 " worker threads (ParallelSweep)");

  const auto run_sweep = [](std::size_t job_count) {
    const sim::ParallelSweep sweep(job_count);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sim::ScenarioSummary> sums = sweep.map<sim::ScenarioSummary>(
        kSweepSeeds, [](std::size_t i) { return sweep_shard(kSweepBase + i); });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return std::pair<std::vector<sim::ScenarioSummary>, double>(std::move(sums), wall);
  };

  const auto [serial, serial_s] = run_sweep(1);
  const auto [parallel, parallel_s] = run_sweep(jobs);
  bool identical = true;
  for (std::size_t i = 0; i < kSweepSeeds; ++i) {
    identical = identical && same_outcome(serial[i], parallel[i]);
  }
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;

  Table table({"jobs", "wall_s", "speedup", "identical"});
  table.print_header();
  table.row({"1", fmt(serial_s, 2), "1.00", "yes"});
  table.row({std::to_string(jobs), fmt(parallel_s, 2), fmt(speedup, 2),
             identical ? "yes" : "NO"});
  bench::note("Each shard is an isolated deterministic instance; the merged\n"
              "summaries must match the serial sweep exactly — parallelism\n"
              "buys wall-clock only, never different results.");

  json.field("sweep_seeds", bench::ju(kSweepSeeds))
      .field("sweep_jobs", bench::ju(jobs))
      .field("sweep_serial_seconds", bench::jf(serial_s))
      .field("sweep_parallel_seconds", bench::jf(parallel_s))
      .field("sweep_speedup", bench::jf(speedup, 2))
      .field("sweep_outputs_identical", identical ? "true" : "false");
}

// --- E7e: loopback socket throughput (TcpTransport) ---------------------------

/// Real-socket counterpart of the message-count rows above: two TcpTransport
/// endpoints on one PollLoop, a loopback TCP connection between them, and a
/// pipelined stream of framed messages. Measures the full wire path — frame
/// encode, non-blocking send with partial-write queueing, FrameReader
/// reassembly, dispatch — and emits socket_* fields for trend lines.
void socket_loopback(bench::JsonReport& json) {
  constexpr std::size_t kMessages = 20'000;
  constexpr std::size_t kPayload = 256;
  constexpr std::size_t kBatch = 64;  // keep the outbuf bounded while pumping

  bench::section("E7e: loopback socket throughput (" +
                 std::to_string(kMessages) + " msgs x " +
                 std::to_string(kPayload) + " B)");

  runtime::PollLoop loop;
  const crypto::Hash256 genesis = crypto::Sha256::hash(Bytes{7});
  runtime::TcpTransport sender(loop, genesis);
  runtime::TcpTransport receiver(loop, genesis);

  std::size_t received = 0;
  sender.host(NodeId(1));
  receiver.host(NodeId(2), [&](const runtime::Message&) { ++received; });
  sender.connect(receiver.listen(0));
  loop.run_until(loop.now() + 2'000'000,
                 [&] { return sender.reaches(NodeId(2)); });

  Rng rng(99);
  const Bytes payload = rng.bytes(kPayload);
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  while (sent < kMessages) {
    for (std::size_t i = 0; i < kBatch && sent < kMessages; ++i, ++sent) {
      sender.send(NodeId(1), NodeId(2), runtime::MsgKind::kTest, payload);
    }
    loop.run_until(loop.now() + 1'000'000,
                   [&] { return received + 4 * kBatch >= sent; });
  }
  loop.run_until(loop.now() + 10'000'000, [&] { return received == kMessages; });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto& stats = sender.stats();
  const double mib = static_cast<double>(stats.bytes_sent) / (1024.0 * 1024.0);
  Table table({"messages", "payload_B", "wall_s", "msgs/s", "MiB/s"});
  table.print_header();
  table.row({std::to_string(received), std::to_string(kPayload), fmt(wall_s, 3),
             fmt(static_cast<double>(received) / wall_s, 0), fmt(mib / wall_s, 1)});
  bench::note("Single-threaded: one PollLoop drives both endpoints, so this is\n"
              "a protocol-stack cost, not a parallel-socket ceiling.");

  json.field("socket_messages", bench::ju(received))
      .field("socket_payload_bytes", bench::ju(kPayload))
      .field("socket_frame_bytes_sent", bench::ju(stats.bytes_sent))
      .field("socket_wall_seconds", bench::jf(wall_s))
      .field("socket_msgs_per_second",
             bench::jf(static_cast<double>(received) / wall_s, 1))
      .field("socket_mib_per_second", bench::jf(mib / wall_s, 2));
}

// --- google-benchmark timings of the screening hot path ------------------------

void bm_screen(benchmark::State& state) {
  const double f = static_cast<double>(state.range(0)) / 100.0;
  reputation::ReputationParams params;
  params.f = f <= 0.0 ? 0.01 : f;
  reputation::ReputationTable table(params);
  for (std::uint32_t c = 0; c < 4; ++c) table.link(CollectorId(c), ProviderId(0));
  ledger::ValidationOracle oracle(0);
  Rng rng(1);
  protocol::ScreeningEngine engine(table, oracle, rng);

  crypto::SigningKey key{crypto::PrivateSeed{}};
  std::vector<ledger::Transaction> txs;
  std::vector<ledger::TxId> ids;
  std::vector<std::vector<reputation::Report>> reports;
  Rng wl(2);
  for (int i = 0; i < 512; ++i) {
    txs.push_back(ledger::make_transaction(ProviderId(0), i, i, wl.bytes(16), key));
    ids.push_back(txs.back().id());
    oracle.register_tx(ids.back(), wl.bernoulli(0.5));
    std::vector<reputation::Report> rep;
    for (std::uint32_t c = 0; c < 4; ++c) {
      rep.push_back({CollectorId(c), wl.bernoulli(0.8) ? ledger::Label::kValid
                                                       : ledger::Label::kInvalid});
    }
    reports.push_back(std::move(rep));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.screen(txs[i & 511], ids[i & 511], reports[i & 511]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_screen)->Arg(20)->Arg(50)->Arg(80)->Name("screening_engine/f_pct");

void bm_full_round(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::ScenarioConfig cfg;
    cfg.topology = {8, 4, 3, 2};
    cfg.rounds = 1;
    cfg.txs_per_provider_per_round = 2;
    cfg.seed = 77;
    sim::Scenario s(cfg);
    state.ResumeTiming();
    s.run_round();
  }
}
BENCHMARK(bm_full_round)->Unit(benchmark::kMillisecond)->Name("full_protocol_round");

}  // namespace

int main(int argc, char** argv) {
  std::printf("bench_throughput — E7: efficiency/correctness trade of f\n");
  f_sweep_table();
  f_sweep_protocol();
  bench::JsonReport json("throughput", 12);
  write_json_summary(json);
  parallel_sweep_speedup(json);
  socket_loopback(json);
  json.write();
  bench::section("E7c: screening hot-path timings (google-benchmark)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
