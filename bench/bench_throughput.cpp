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

#include <cstdio>
#include <utility>
#include <vector>

#include "baselines/policies.hpp"
#include "baselines/policy_simulator.hpp"
#include "bench_util.hpp"
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
  bench::section("E7c: screening hot-path timings (google-benchmark)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
