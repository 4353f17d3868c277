// RepChain benchmark program. Runs one named workload for a wall-clock budget,
// checks that its outputs are correct, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Layers are timed only from outside, through public entry
// points, so a traced run executes exactly the protocol an untraced run does.
//
//   repbench --workload sim_honest|sim_byzantine --seed N
//            --seconds S --trace 0|1
//
// Exit codes: 0 = measured and correct, 1 = a correctness gate failed,
// 2 = bad arguments.

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/batch_verify.hpp"
#include "crypto/keygen.hpp"
#include "crypto/vrf.hpp"
#include "ledger/block.hpp"
#include "runtime/node_context.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/reliable_channel.hpp"
#include "runtime/tcp_transport.hpp"
#include "sim/scenario.hpp"
#include "storage/node_state_store.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace {

using namespace repchain;
using Clock = std::chrono::steady_clock;
using runtime::MsgKind;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear interpolation between order statistics (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// SplitMix64 finaliser: independent per-episode seeds from one run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Repeat `op` until at least `min_s` wall seconds and `min_iters` calls have
/// passed; returns seconds per call.
double time_per_call(const std::function<void()>& op, double min_s = 0.02,
                     std::size_t min_iters = 8) {
  const auto t0 = Clock::now();
  std::size_t n = 0;
  while (n < min_iters || seconds_since(t0) < min_s) {
    op();
    ++n;
  }
  return seconds_since(t0) / static_cast<double>(n);
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every end-to-end metric, in print order; BENCHMARK.json lists the same.
/// Round times are reported at p90 only: the machine's speed shifts every
/// few rounds, and the median moves with the share of slow rounds in a run
/// far more than p90 does (per-layer sim.step_ms_p50 keeps it visible).
const std::vector<Metric> kEndToEnd = {
    {"throughput_per_s", "1/s"},        {"step_ms_p90", "ms"},
    {"latency_ms_p50", "ms"},           {"latency_ms_mean", "ms"},
    {"validations_per_tx", "ratio"},    {"governor_expected_loss", "loss"},
    {"setup_s", "s"},                   {"peak_rss_mib", "MiB"},
};

/// Handler spans of the traced simulator: (metric prefix, role, kinds).
enum class Role : std::uint8_t { kProvider, kCollector, kGovernor };
struct SpanName {
  const char* name;
  Role role;
  std::vector<MsgKind> kinds;
};
const std::vector<SpanName> kSpans = {
    {"protocol.collector.provider_tx", Role::kCollector, {MsgKind::kProviderTx}},
    {"protocol.governor.collector_upload", Role::kGovernor, {MsgKind::kCollectorUpload}},
    {"protocol.governor.label_gossip", Role::kGovernor, {MsgKind::kLabelGossip}},
    {"protocol.governor.vrf_announce", Role::kGovernor, {MsgKind::kVrfAnnounce}},
    {"protocol.governor.block_proposal", Role::kGovernor, {MsgKind::kBlockProposal}},
    {"protocol.governor.stake", Role::kGovernor,
     {MsgKind::kStakeTx, MsgKind::kStateProposal, MsgKind::kStateSignature,
      MsgKind::kStateCommit}},
    {"protocol.governor.argue", Role::kGovernor, {MsgKind::kArgue}},
    {"protocol.governor.block_request", Role::kGovernor, {MsgKind::kBlockRequest}},
    {"protocol.governor.block_response", Role::kGovernor, {MsgKind::kBlockResponse}},
    {"protocol.provider.block_response", Role::kProvider, {MsgKind::kBlockResponse}},
};

/// Every per-layer metric, in print order. A layer a workload does not
/// exercise reads 0 there.
std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> out;
  for (const SpanName& sn : kSpans) {
    const std::string n = sn.name;
    out.push_back({n + ".busy_s", "s"});
    out.push_back({n + ".count", "count"});
    out.push_back({n + ".share", "share"});
  }
  const std::vector<Metric> rest = {
      {"protocol.other.busy_s", "s"},
      {"protocol.other.share", "share"},
      {"sim.loop_s", "s"},
      {"sim.step_ms_p50", "ms"},
      {"sim.timer_residual_s", "s"},
      {"sim.timer_residual_share", "share"},
      {"crypto.sign_us", "us"},
      {"crypto.verify_us", "us"},
      {"crypto.verify_batch_us_per_sig", "us"},
      {"crypto.verify_batch_size", "count"},
      {"crypto.vrf_prove_us", "us"},
      {"crypto.vrf_verify_us", "us"},
      {"crypto.tx_id_us", "us"},
      {"net.messages_per_tx", "count"},
      {"net.bytes_per_tx", "B"},
      {"ledger.txs_per_block", "count"},
      {"screening.unchecked_share", "share"},
      {"governor.forgeries_detected", "count/episode"},
      {"governor.equivocations_detected", "count/episode"},
      {"governor.argues_accepted", "count/episode"},
      {"governor.blocks_synced", "count/episode"},
      {"storage.wal_bytes", "B/episode"},
      {"storage.snapshot_bytes", "B/episode"},
      {"storage.wal_append_us", "us"},
      {"storage.compact_ms", "ms"},
      {"wire.encode_ns_per_msg", "ns"},
      {"wire.decode_ns_per_msg", "ns"},
      {"sim.commit_latency_ms_p95", "ms"},
      {"sim.commit_latency_ms_p99", "ms"},
      {"runtime.tcp.msgs_per_s", "1/s"},
      {"runtime.tcp.latency_us_p50", "us"},
      {"runtime.tcp.latency_us_p99", "us"},
      {"runtime.tcp.bytes_per_msg", "B"},
      {"runtime.reliable.retransmits", "count"},
      {"runtime.reliable.acks_per_msg", "count"},
      {"bench.open_rate_per_s", "1/s"},
      {"bench.closed_burst", "count"},
      {"bench.generator_lag_us_p99", "us"},
      {"trace.untraced_per_s", "1/s"},
      {"trace.traced_per_s", "1/s"},
      {"trace.overhead_share", "share"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

/// A fixed metric list whose values the run fills in.
class Report {
 public:
  explicit Report(std::vector<Metric> metrics) : metrics_(std::move(metrics)) {}

  void set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("metric not declared: " + name);
  }

  /// Human-readable table, then the one-line JSON result (always last).
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// Correctness gate: every violation is printed and fails the run.
struct Gate {
  bool ok = true;
  void check(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::printf("CORRECTNESS FAILURE: %s\n", what.c_str());
    }
  }
};

// --- Workload definitions ------------------------------------------------------

struct SimWorkload {
  sim::ScenarioConfig base;
  std::size_t episode_rounds;
  /// The protocol metrics (commit latency, validations, loss) come from the
  /// first this-many episodes, which every run completes, so they depend on
  /// the seed alone and never on how fast the machine ran.
  std::size_t protocol_episodes;
  /// Governor 1 transfers one stake unit to governor 2 before round
  /// stake_first and every stake_every rounds after it (0 = never). Each
  /// transfer runs the stake consensus, whose commit is the recovery point
  /// WAL compaction needs.
  std::size_t stake_first = 0;
  std::size_t stake_every = 0;
  /// The traced run also drives the socket stack with this workload's
  /// message mix (the runtime.* per-layer metrics).
  bool socket_layers = false;
};

/// sim_honest: the paper's normal case — 16 providers x 8 collectors x
/// 4 governors, r = 2, 4 tx/provider/round, p_valid 0.8, honest and
/// noisy(0.9) collectors, no faults.
sim::ScenarioConfig honest_config() {
  sim::ScenarioConfig cfg;
  cfg.topology = {16, 8, 4, 2};
  cfg.txs_per_provider_per_round = 4;
  cfg.p_valid = 0.8;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.9)};
  return cfg;
}

SimWorkload sim_workload(const std::string& name) {
  SimWorkload w{honest_config(), 40, 3};
  w.socket_layers = name == "sim_honest";
  if (name == "sim_byzantine") {
    // Reputation punishment, equivocation proofs, WAL append/compaction,
    // crash recovery and catch-up sync on top of the honest topology.
    sim::ScenarioConfig& cfg = w.base;
    cfg.behaviors = {protocol::CollectorBehavior::honest(),
                     protocol::CollectorBehavior::noisy(0.9),
                     protocol::CollectorBehavior::misreporting(0.3),
                     protocol::CollectorBehavior::forging(0.2),
                     protocol::CollectorBehavior::equivocating()};
    cfg.enable_label_gossip = true;
    cfg.durable_governors = true;  // in-memory stores: no fsync noise
    cfg.governor.wal_compaction_appends = 4;
    cfg.audit_probability = 0.6;
    cfg.governor_stakes = {10, 10, 10, 10};
    w.episode_rounds = 24;
    // The crash ends before the first transfer: with a transfer committed
    // while governor 3 was down, the replicas' chains were seen to disagree
    // after its restart, and this workload measures cost, not that case.
    sim::CrashPlan crash;
    crash.governor = 3;  // governor 0 is the reference replica
    crash.crash_round = 2;
    crash.restart_round = 5;
    cfg.crashes = {crash};
    w.stake_first = 6;
    w.stake_every = 4;
  }
  return w;
}

// --- Per-layer tracing of the simulator ---------------------------------------

/// Handler spans keyed (role, message kind), recorded by wrapping each
/// node's network handler around the same on_message call the harness makes.
struct SpanTable {
  struct Cell {
    double busy_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::pair<Role, MsgKind>, Cell> cells;
  /// Uploads reaching governor 0, grouped by (episode, delivery instant):
  /// the intake flushes each instant's uploads through one batch
  /// verification. Every episode's clock starts at 0, hence the episode key.
  std::map<std::pair<std::size_t, SimTime>, std::uint64_t> upload_waves;
  std::size_t episodes = 0;  // scenarios instrumented so far

  void add(Role role, MsgKind kind, double s) {
    Cell& c = cells[{role, kind}];
    c.busy_s += s;
    ++c.count;
  }
  [[nodiscard]] double total_busy() const {
    double t = 0.0;
    for (const auto& [key, c] : cells) t += c.busy_s;
    return t;
  }
};

void install_spans(sim::Scenario& s, SpanTable& spans) {
  net::SimNetwork& net = s.network();
  const protocol::Directory& dir = s.directory();
  const std::size_t episode = spans.episodes++;
  const auto timed = [&spans](Role role, const net::Message& m, auto&& call) {
    const auto t0 = Clock::now();
    call();
    spans.add(role, m.kind, seconds_since(t0));
  };
  for (std::size_t i = 0; i < s.providers().size(); ++i) {
    net.set_handler(dir.node_of(ProviderId(static_cast<std::uint32_t>(i))),
                    [&s, timed, i](const net::Message& m) {
                      timed(Role::kProvider, m, [&] { s.providers()[i].on_message(m); });
                    });
  }
  for (std::size_t i = 0; i < s.collectors().size(); ++i) {
    net.set_handler(dir.node_of(CollectorId(static_cast<std::uint32_t>(i))),
                    [&s, timed, i](const net::Message& m) {
                      timed(Role::kCollector, m, [&] { s.collectors()[i].on_message(m); });
                    });
  }
  for (std::size_t i = 0; i < s.governors().size(); ++i) {
    net.set_handler(dir.node_of(GovernorId(static_cast<std::uint32_t>(i))),
                    [&s, &spans, timed, episode, i](const net::Message& m) {
                      if (i == 0 && m.kind == MsgKind::kCollectorUpload) {
                        ++spans.upload_waves[{episode, m.delivered_at}];
                      }
                      timed(Role::kGovernor, m, [&] {
                        if (auto& g = s.governors()[i]) g->on_message(m);  // null = crashed
                      });
                    });
  }
}

// --- Simulator episodes ----------------------------------------------------------

/// Everything one finished episode reports. `digest` fingerprints the
/// protocol outcome; a traced replay of the same episode must reproduce it
/// byte for byte.
struct Episode {
  double setup_s = 0.0;
  std::vector<double> round_ms;
  double loop_s = 0.0;
  std::uint64_t committed = 0;  // TxRecords on the reference replica's chain
  std::uint64_t blocks = 0;
  std::uint64_t submitted = 0;
  std::uint64_t validations = 0;
  double expected_loss = 0.0;
  std::vector<double> latency_ms;  // simulated submit -> commit
  std::uint64_t valid_submitted = 0;
  std::uint64_t valid_missing = 0;
  bool agreement = false;
  bool audit = false;
  std::string digest;
  // Per-layer counts.
  net::NetworkStats network;
  std::uint64_t screened = 0;
  std::uint64_t unchecked = 0;
  std::uint64_t forgeries = 0;
  std::uint64_t equivocations = 0;
  std::uint64_t argues_accepted = 0;
  std::uint64_t blocks_synced = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
};

/// Inputs kept from a finished scenario for the unit-cost measurements.
struct Material {
  std::vector<ledger::Transaction> txs;     // committed, with their signatures
  std::vector<crypto::PublicKey> tx_keys;   // provider key of each tx
  std::vector<Bytes> wal_records;           // encoded blocks as the WAL holds them
  Bytes checkpoint;                         // reference replica's checkpoint
  net::NetworkStats network;
};

std::string summary_digest(const sim::ScenarioSummary& sum, const ledger::ChainStore& chain) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "sub=%llu blocks=%llu valid=%llu unchecked=%llu argued=%llu agree=%d "
                "audit=%d val=%llu loss=%.17g realized=%.17g msgs=%llu bytes=%llu evid=%llu",
                static_cast<unsigned long long>(sum.txs_submitted),
                static_cast<unsigned long long>(sum.blocks),
                static_cast<unsigned long long>(sum.chain_valid_txs),
                static_cast<unsigned long long>(sum.chain_unchecked_txs),
                static_cast<unsigned long long>(sum.chain_argued_txs),
                sum.agreement ? 1 : 0, sum.chains_audit_ok ? 1 : 0,
                static_cast<unsigned long long>(sum.validations_total),
                sum.mean_governor_expected_loss, sum.mean_governor_realized_loss,
                static_cast<unsigned long long>(sum.network.messages_sent),
                static_cast<unsigned long long>(sum.network.bytes_sent),
                static_cast<unsigned long long>(sum.byzantine_evidence));
  std::string d = buf;
  if (!chain.empty()) d += " head=" + to_hex(chain.head_hash());
  return d;
}

/// Times the construction of one more scenario of the workload.
double sample_setup(const SimWorkload& w, std::uint64_t seed) {
  sim::ScenarioConfig cfg = w.base;
  cfg.seed = seed;
  const auto t0 = Clock::now();
  { sim::Scenario s(cfg); }
  return seconds_since(t0);
}

/// Runs one episode. With `setup_samples`, one extra scenario construction
/// is timed after every round, outside the round timing, so set-up samples
/// are spread over the run as evenly as the rounds are.
Episode run_episode(const SimWorkload& w, std::uint64_t seed, SpanTable* spans,
                    Material* material, std::vector<double>* setup_samples = nullptr) {
  sim::ScenarioConfig cfg = w.base;
  cfg.seed = seed;
  cfg.rounds = w.episode_rounds;
  Episode ep;
  const auto t_setup = Clock::now();
  sim::Scenario s(cfg);
  ep.setup_s = seconds_since(t_setup);
  if (spans != nullptr) install_spans(s, *spans);

  ep.round_ms.reserve(w.episode_rounds);
  for (std::size_t r = 1; r <= w.episode_rounds; ++r) {
    const auto t0 = Clock::now();
    if (w.stake_every > 0 && r >= w.stake_first && (r - w.stake_first) % w.stake_every == 0) {
      s.governor(1).submit_stake_transfer(GovernorId(2), 1);
      s.queue().run();
    }
    s.run_round();
    const double dt = seconds_since(t0);
    ep.loop_s += dt;
    ep.round_ms.push_back(dt * 1e3);
    if (setup_samples != nullptr) setup_samples->push_back(sample_setup(w, mix_seed(seed, r)));
  }

  const sim::ScenarioSummary sum = s.summary();
  const protocol::Governor& ref = s.governor(0);
  const ledger::ChainStore& chain = ref.chain();
  ep.submitted = sum.txs_submitted;
  ep.validations = sum.validations_total;
  ep.expected_loss = sum.mean_governor_expected_loss;
  ep.agreement = sum.agreement;
  ep.audit = sum.chains_audit_ok;
  ep.network = sum.network;
  ep.blocks = chain.height();
  ep.digest = summary_digest(sum, chain);

  std::unordered_set<ledger::TxId, ledger::TxIdHash> on_chain;
  for (const ledger::Block& b : chain.blocks()) {
    const std::optional<SimTime> commit = s.observer().commit_at(b.round);
    for (const ledger::TxRecord& rec : b.txs) {
      ++ep.committed;
      on_chain.insert(rec.tx.id());
      if (commit && *commit >= rec.tx.timestamp) {
        ep.latency_ms.push_back(static_cast<double>(*commit - rec.tx.timestamp) /
                                static_cast<double>(kMillisecond));
      }
    }
  }
  for (const auto& [id, valid] : s.oracle().truth()) {
    if (!valid) continue;
    ++ep.valid_submitted;
    if (!on_chain.contains(id)) ++ep.valid_missing;
  }

  ep.screened = ref.screening_stats().screened;
  ep.unchecked = ref.screening_stats().unchecked;
  for (std::size_t i = 0; i < s.governors().size(); ++i) {
    if (const auto& g = s.governors()[i]) {
      ep.forgeries += g->metrics().forgeries_detected;
      ep.equivocations += g->metrics().equivocations_detected;
      ep.argues_accepted += g->metrics().argues_accepted;
      ep.blocks_synced += g->metrics().blocks_synced;
    }
    if (const storage::NodeStateStore* store = s.governor_store(i)) {
      ep.wal_bytes += store->wal_bytes();
      ep.snapshot_bytes += store->snapshot_bytes();
    }
  }

  if (material != nullptr) {
    material->network = sum.network;
    for (const ledger::Block& b : chain.blocks()) {
      for (const ledger::TxRecord& rec : b.txs) {
        if (material->txs.size() >= 256) break;
        material->txs.push_back(rec.tx);
        material->tx_keys.push_back(s.providers()[rec.tx.provider.value()].public_key());
      }
    }
    for (std::size_t i = 0; i < s.governors().size(); ++i) {
      if (const storage::NodeStateStore* store = s.governor_store(i)) {
        for (Bytes& rec : store->wal_records()) material->wal_records.push_back(std::move(rec));
      }
    }
    if (material->wal_records.empty()) {
      // No durable store on this workload: the records a WAL would hold are
      // the reference replica's encoded blocks.
      for (const ledger::Block& b : chain.blocks()) material->wal_records.push_back(b.encode());
    }
    material->checkpoint = ref.checkpoint();
  }
  return ep;
}

// --- Unit costs measured on the workload's own material ----------------------------

/// A synthetic message stream with the kind mix and mean payload size the
/// simulated network carried. Message i carries its index in its first
/// 8 payload bytes, so the receiver can check identity and integrity.
struct MixedMessage {
  MsgKind kind;
  Bytes payload;
};

std::vector<MixedMessage> message_mix(const net::NetworkStats& stats, std::uint64_t seed,
                                      std::size_t n) {
  std::vector<std::pair<MsgKind, std::uint64_t>> kinds(stats.by_kind.begin(),
                                                       stats.by_kind.end());
  std::uint64_t total = 0;
  for (const auto& [k, c] : kinds) total += c;
  Rng rng(seed);
  std::vector<MixedMessage> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t pick = total > 0 ? rng.uniform(total) : 0;
    MsgKind kind = MsgKind::kTest;
    std::uint64_t size = 64;
    for (const auto& [k, c] : kinds) {
      if (pick < c) {
        kind = k;
        size = stats.bytes_by_kind.at(k) / std::max<std::uint64_t>(c, 1);
        break;
      }
      pick -= c;
    }
    Bytes payload = rng.bytes(std::max<std::size_t>(size, 16));
    std::memcpy(payload.data(), &i, sizeof(std::uint64_t));
    out.push_back({kind, std::move(payload)});
  }
  return out;
}

void crypto_unit_costs(const Material& m, std::size_t wave, std::uint64_t seed, Report& out,
                       Gate& gate) {
  Rng rng(mix_seed(seed, 0xC0));
  const crypto::SigningKey key(crypto::random_seed(rng));
  std::vector<Bytes> pre;
  for (const auto& tx : m.txs) pre.push_back(tx.signed_preimage());
  const std::size_t n = pre.size();
  gate.check(n > 0, "no committed transactions to time crypto on");
  if (n == 0) return;

  std::size_t i = 0;
  crypto::Signature sink{};
  const double sign = time_per_call([&] { sink = key.sign(pre[i++ % n]); });
  bool all_ok = true;
  i = 0;
  const double verify = time_per_call([&] {
    const std::size_t k = i++ % n;
    all_ok = crypto::verify(m.tx_keys[k], pre[k], m.txs[k].provider_sig) && all_ok;
  });
  gate.check(all_ok, "a committed transaction's signature failed to verify");

  wave = std::clamp<std::size_t>(wave, 1, n);
  std::vector<crypto::BatchItem> batch;
  for (std::size_t k = 0; k < wave; ++k) {
    batch.push_back({m.tx_keys[k], pre[k], m.txs[k].provider_sig});
  }
  Rng coeff(mix_seed(seed, 0xC1));
  bool batch_ok = true;
  const double verify_batch =
      time_per_call([&] { batch_ok = crypto::verify_batch(batch, coeff) && batch_ok; });
  gate.check(batch_ok, "batch verification rejected committed signatures");

  i = 0;
  std::vector<crypto::VrfResult> proofs;
  const double vrf_prove = time_per_call([&] {
    proofs.push_back(crypto::vrf_evaluate(key, pre[i++ % n]));
  });
  i = 0;
  bool vrf_ok = true;
  const double vrf_verify = time_per_call([&] {
    const std::size_t k = i++ % proofs.size();
    vrf_ok = crypto::vrf_verify(key.public_key(), pre[k % n], proofs[k].proof).has_value() &&
             vrf_ok;
  });
  gate.check(vrf_ok, "VRF proof failed to verify");

  i = 0;
  ledger::TxId id_sink{};
  const double tx_id = time_per_call([&] { id_sink = m.txs[i++ % n].id(); });
  (void)sink;
  (void)id_sink;

  out.set("crypto.sign_us", sign * 1e6);
  out.set("crypto.verify_us", verify * 1e6);
  out.set("crypto.verify_batch_us_per_sig", verify_batch * 1e6 / static_cast<double>(wave));
  out.set("crypto.verify_batch_size", static_cast<double>(wave));
  out.set("crypto.vrf_prove_us", vrf_prove * 1e6);
  out.set("crypto.vrf_verify_us", vrf_verify * 1e6);
  out.set("crypto.tx_id_us", tx_id * 1e6);
}

void storage_unit_costs(const Material& m, Report& out, Gate& gate) {
  gate.check(!m.wal_records.empty(), "no WAL records to replay");
  if (m.wal_records.empty()) return;
  std::vector<double> append_us;
  std::vector<double> compact_ms;
  for (int rep = 0; rep < 5; ++rep) {
    storage::MemoryStateStore store;
    const auto t0 = Clock::now();
    for (const Bytes& rec : m.wal_records) store.wal_append(rec);
    append_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(m.wal_records.size()));
    gate.check(store.wal_records().size() == m.wal_records.size(), "WAL replay lost records");
    const auto t1 = Clock::now();
    store.compact(m.checkpoint, m.wal_records.size() / 2);
    compact_ms.push_back(seconds_since(t1) * 1e3);
    gate.check(store.load_snapshot() == std::optional<Bytes>(m.checkpoint),
               "compacted snapshot does not read back");
  }
  out.set("storage.wal_append_us", median(append_us));
  out.set("storage.compact_ms", median(compact_ms));
}

void wire_unit_costs(const std::vector<MixedMessage>& mix, Report& out, Gate& gate) {
  std::vector<runtime::Message> msgs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    runtime::Message m;
    m.from = NodeId(static_cast<std::uint32_t>(1 + i % 3));
    m.to = NodeId(0);
    m.kind = mix[i].kind;
    m.payload = mix[i].payload;
    msgs.push_back(std::move(m));
  }
  // Encode the whole mix into one framed stream, then decode it back.
  Bytes stream;
  Bytes envelope;
  const auto t0 = Clock::now();
  for (const runtime::Message& m : msgs) {
    wire::encode_message_into(m, envelope);
    wire::append_frame(stream, static_cast<std::uint16_t>(wire::PacketType::kMessage), envelope);
  }
  const double encode_s = seconds_since(t0);
  std::vector<wire::Frame> frames;
  wire::FrameReader reader;
  const auto t1 = Clock::now();
  constexpr std::size_t kChunk = 4096;  // socket-sized reads
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    reader.feed(BytesView(stream).subspan(off, std::min(kChunk, stream.size() - off)), frames);
  }
  std::vector<runtime::Message> back;
  back.reserve(frames.size());
  for (const wire::Frame& f : frames) back.push_back(wire::decode_message(f.payload));
  const double decode_s = seconds_since(t1);
  std::size_t intact = 0;
  for (std::size_t i = 0; i < back.size() && i < msgs.size(); ++i) {
    intact += back[i].kind == msgs[i].kind && back[i].payload == msgs[i].payload ? 1 : 0;
  }
  gate.check(frames.size() == msgs.size() && intact == msgs.size(),
             "wire codec round trip altered messages");
  const double n = static_cast<double>(msgs.size());
  out.set("wire.encode_ns_per_msg", encode_s * 1e9 / n);
  out.set("wire.decode_ns_per_msg", decode_s * 1e9 / n);
}

// --- Socket stack: hub + peers over loopback TCP ---------------------------------

constexpr std::size_t kPeers = 3;
constexpr std::size_t kMixSize = 4096;           // distinct payload templates
constexpr std::uint64_t kTimeoutUs = 5'000'000;  // a step or drain that takes longer fails

/// The load the mesh carries, taken from the untraced simulator episodes of
/// the same run: the open loop sends at the rate the simulated network
/// carried messages per round-loop wall-second, and a closed-loop step
/// carries one simulated round's messages.
struct SocketLoad {
  double open_rate = 0.0;     // messages per second, all peers
  std::size_t burst = 0;      // messages per peer per closed-loop step
};

/// One PollLoop, a hub TcpTransport and kPeers peer TcpTransports connected
/// to it, each endpoint behind a ReliableChannel. Peers send to the hub,
/// the hub acknowledges. The hub checks every delivery against the mix.
class Mesh {
 public:
  Mesh(const std::vector<MixedMessage>& mix, SocketLoad load, std::uint64_t seed)
      : mix_(mix), load_(load) {
    const crypto::Hash256 genesis = crypto::Sha256::hash(Bytes{0x6d, 0x65, 0x73, 0x68});
    Rng rng(seed);
    for (std::size_t i = 0; i <= kPeers; ++i) {
      auto ep = std::make_unique<Endpoint>();
      const NodeId id(static_cast<std::uint32_t>(i));
      ep->transport = std::make_unique<runtime::TcpTransport>(loop_, genesis);
      ep->ctx = std::make_unique<runtime::NodeContext>(id, *ep->transport, rng.derive(i));
      ep->channel = std::make_unique<runtime::ReliableChannel>(*ep->ctx, 0);
      Endpoint* raw = ep.get();
      ep->transport->host(id, [raw](const runtime::Message& m) { raw->channel->on_message(m); });
      endpoints_.push_back(std::move(ep));
    }
    endpoints_[0]->channel->set_deliver([this](const runtime::Message& m) { on_deliver(m); });
    // An always-readable eventfd keeps poll(2) from ever sleeping: the loop
    // spins, so no step or delivery waits on the kernel waking the process,
    // and the open-loop generator runs from its callback.
    spin_fd_ = eventfd(1, EFD_NONBLOCK);
    if (spin_fd_ >= 0) loop_.watch(spin_fd_, POLLIN, [this](short) { generate(); });
    const std::uint16_t port = endpoints_[0]->transport->listen(0);
    for (std::size_t i = 1; i <= kPeers; ++i) endpoints_[i]->transport->connect(port);
    connected_ = loop_.run_until(loop_.now() + kTimeoutUs, [this] {
      for (std::size_t i = 1; i <= kPeers; ++i) {
        if (!endpoints_[i]->transport->reaches(NodeId(0)) ||
            !endpoints_[0]->transport->reaches(NodeId(static_cast<std::uint32_t>(i)))) {
          return false;
        }
      }
      return true;
    });
  }

  ~Mesh() {
    if (spin_fd_ >= 0) {
      loop_.unwatch(spin_fd_);
      ::close(spin_fd_);
    }
  }
  Mesh(const Mesh&) = delete;  // handlers and the loop capture `this`
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }
  [[nodiscard]] std::uint64_t sent() const { return next_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t bad() const { return duplicates_ + corrupt_; }
  [[nodiscard]] const std::vector<double>& lag_us() const { return lag_us_; }

  [[nodiscard]] bool idle() const {
    for (const auto& ep : endpoints_) {
      if (ep->channel->in_flight() != 0) return false;
    }
    return delivered_ + bad() >= next_;
  }

  /// Closed loop: every peer sends a burst of messages, then wait until all
  /// are delivered and acknowledged. Returns false on timeout.
  bool step() {
    for (std::size_t k = 0; k < load_.burst * kPeers; ++k) send_next();
    return loop_.run_until(loop_.now() + kTimeoutUs, [this] { return idle(); });
  }

  /// Open loop at the load's rate for `seconds`: message i is due at
  /// i / rate and its latency is measured from that due time. Then drain.
  /// Returns false if a message was not delivered in time.
  bool open_loop(double seconds) {
    open_total_ = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(seconds * load_.open_rate));
    open_first_ = next_;
    issued_ = 0;
    latency_us_.assign(open_total_, -1.0);
    lag_us_.assign(open_total_, 0.0);
    open_start_ = Clock::now();
    open_ = true;
    loop_.run_until(loop_.now() + static_cast<SimTime>(seconds * 2e6) + kTimeoutUs,
                    [this] { return issued_ >= open_total_; });
    const bool drained =
        loop_.run_until(loop_.now() + kTimeoutUs, [this] { return idle(); });
    open_ = false;
    return issued_ >= open_total_ && drained;
  }

  [[nodiscard]] double latency_us(double q) const { return percentile(latency_us_, q); }

  [[nodiscard]] std::uint64_t retransmits() const {
    std::uint64_t n = 0;
    for (const auto& ep : endpoints_) n += ep->channel->stats().retransmits;
    return n;
  }
  [[nodiscard]] std::uint64_t acks() const { return endpoints_[0]->channel->stats().acks_sent; }
  [[nodiscard]] std::uint64_t tcp_bytes() const {
    std::uint64_t n = 0;
    for (const auto& ep : endpoints_) n += ep->transport->stats().bytes_sent;
    return n;
  }

 private:
  struct Endpoint {
    std::unique_ptr<runtime::TcpTransport> transport;
    std::unique_ptr<runtime::NodeContext> ctx;
    std::unique_ptr<runtime::ReliableChannel> channel;
  };

  /// Open-loop generator: send every message whose due time has passed.
  void generate() {
    if (!open_) return;
    const auto now = Clock::now();
    while (issued_ < open_total_ && due_of(issued_) <= now) {
      lag_us_[issued_] = std::chrono::duration<double, std::micro>(now - due_of(issued_)).count();
      send_next();
      ++issued_;
    }
  }

  [[nodiscard]] Clock::time_point due_of(std::uint64_t pos) const {
    return open_start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                             static_cast<double>(pos) * 1e9 / load_.open_rate));
  }

  void send_next() {
    const std::uint64_t idx = next_++;
    const MixedMessage& tmpl = mix_[idx % mix_.size()];
    Bytes payload = tmpl.payload;
    std::memcpy(payload.data(), &idx, sizeof(idx));
    seen_.push_back(false);
    endpoints_[1 + idx % kPeers]->channel->send(NodeId(0), tmpl.kind, payload);
  }

  void on_deliver(const runtime::Message& m) {
    std::uint64_t idx = 0;
    if (m.payload.size() < sizeof(idx)) {
      ++corrupt_;
      return;
    }
    std::memcpy(&idx, m.payload.data(), sizeof(idx));
    if (idx >= next_) {
      ++corrupt_;
      return;
    }
    const MixedMessage& tmpl = mix_[idx % mix_.size()];
    const bool intact =
        m.kind == tmpl.kind && m.payload.size() == tmpl.payload.size() &&
        m.from == NodeId(static_cast<std::uint32_t>(1 + idx % kPeers)) &&
        std::equal(m.payload.begin() + sizeof(idx), m.payload.end(),
                   tmpl.payload.begin() + sizeof(idx));
    if (!intact) {
      ++corrupt_;
      return;
    }
    if (seen_[idx]) {
      ++duplicates_;
      return;
    }
    seen_[idx] = true;
    ++delivered_;
    if (open_ && idx >= open_first_ && idx - open_first_ < open_total_) {
      const std::uint64_t pos = idx - open_first_;
      latency_us_[pos] =
          std::chrono::duration<double, std::micro>(Clock::now() - due_of(pos)).count();
    }
  }

  const std::vector<MixedMessage>& mix_;
  const SocketLoad load_;
  runtime::PollLoop loop_;
  int spin_fd_ = -1;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  bool connected_ = false;
  bool open_ = false;
  std::uint64_t next_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupt_ = 0;
  std::vector<bool> seen_;            // per message index: accepted once
  Clock::time_point open_start_{};
  std::uint64_t open_first_ = 0;       // index of the open loop's first message
  std::uint64_t open_total_ = 0;
  std::uint64_t issued_ = 0;           // open-loop messages sent so far
  std::vector<double> latency_us_;     // per open-loop position, from due time
  std::vector<double> lag_us_;         // per open-loop position, send - due
};

/// The free-run cluster's socket stack carrying this workload's message mix:
/// closed-loop steps for half the budget, then the open loop for the other
/// half. Every message must arrive exactly once, intact; one sent late still
/// counts as delivered.
void socket_layers(const net::NetworkStats& stats, SocketLoad load, std::uint64_t seed,
                   double seconds, Report& report, Gate& gate) {
  const std::vector<MixedMessage> mix = message_mix(stats, mix_seed(seed, 0xA1), kMixSize);
  Mesh mesh(mix, load, mix_seed(seed, 0xB0));
  gate.check(mesh.connected(), "mesh handshake timed out");
  if (!mesh.connected()) return;
  bool steps_ok = true;
  double closed_s = 0.0;
  while (steps_ok && closed_s < seconds / 2) {
    const auto t0 = Clock::now();
    steps_ok = mesh.step();
    closed_s += seconds_since(t0);
  }
  gate.check(steps_ok, "closed-loop step timed out");
  const std::uint64_t closed_msgs = mesh.delivered();
  const std::uint64_t closed_acks = mesh.acks();
  const std::uint64_t closed_bytes = mesh.tcp_bytes();
  gate.check(mesh.open_loop(seconds / 2), "open-loop messages not delivered in time");
  gate.check(mesh.sent() == mesh.delivered() && mesh.bad() == 0,
             std::to_string(mesh.sent() - mesh.delivered()) + " lost and " +
                 std::to_string(mesh.bad()) + " duplicate or corrupt messages");

  report.set("runtime.tcp.msgs_per_s", ratio(static_cast<double>(closed_msgs), closed_s));
  report.set("runtime.tcp.latency_us_p50", mesh.latency_us(0.5));
  report.set("runtime.tcp.latency_us_p99", mesh.latency_us(0.99));
  report.set("runtime.tcp.bytes_per_msg",
             ratio(static_cast<double>(closed_bytes), static_cast<double>(closed_msgs)));
  report.set("runtime.reliable.retransmits", static_cast<double>(mesh.retransmits()));
  report.set("runtime.reliable.acks_per_msg",
             ratio(static_cast<double>(closed_acks), static_cast<double>(closed_msgs)));
  report.set("bench.open_rate_per_s", load.open_rate);
  report.set("bench.closed_burst", static_cast<double>(load.burst));
  report.set("bench.generator_lag_us_p99", percentile(mesh.lag_us(), 0.99));
}

// --- Simulator workloads ------------------------------------------------------------

/// Whole episodes of one run; episode k's seed is derived from the run seed.
struct SimRun {
  std::vector<Episode> episodes;
  double loop_s = 0.0;
  std::uint64_t committed = 0;

  void add(Episode ep) {
    loop_s += ep.loop_s;
    committed += ep.committed;
    episodes.push_back(std::move(ep));
  }
  /// True once another episode would end more than half an episode past
  /// `budget_s` of round-loop time.
  [[nodiscard]] bool budget_spent(double budget_s) const {
    if (episodes.empty()) return false;
    return loop_s + loop_s / static_cast<double>(episodes.size()) / 2 >= budget_s;
  }
};

void gate_episodes(const SimRun& run, Gate& gate, std::uint64_t& attempted,
                   std::uint64_t& failed) {
  for (std::size_t k = 0; k < run.episodes.size(); ++k) {
    const Episode& ep = run.episodes[k];
    const std::string tag = "episode " + std::to_string(k) + ": ";
    gate.check(ep.agreement, tag + "governor chains disagree");
    gate.check(ep.audit, tag + "chain audit failed");
    gate.check(ep.valid_missing == 0,
               tag + std::to_string(ep.valid_missing) + " valid transactions missing");
    attempted += ep.valid_submitted;
    failed += (ep.agreement && ep.audit) ? ep.valid_missing : ep.valid_submitted;
  }
}

int run_sim(const std::string& workload, std::uint64_t seed, double seconds, bool trace) {
  const SimWorkload w = sim_workload(workload);
  Report report(trace ? per_layer_metrics() : kEndToEnd);
  Gate gate;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (!trace) {
    // Set-up samples are spread over the whole run, one after every round,
    // so a slow spell of the machine weighs on setup_s as much as on
    // throughput.
    std::vector<double> setup;
    SimRun run;
    for (std::size_t k = 0; k < w.protocol_episodes || !run.budget_spent(seconds); ++k) {
      run.add(run_episode(w, mix_seed(seed, k), nullptr, nullptr, &setup));
    }
    gate_episodes(run, gate, attempted, failed);

    std::vector<double> round_ms;
    std::vector<double> latency_ms;
    std::uint64_t submitted = 0;
    std::uint64_t validations = 0;
    double loss = 0.0;
    for (const Episode& ep : run.episodes) {
      setup.push_back(ep.setup_s);
      round_ms.insert(round_ms.end(), ep.round_ms.begin(), ep.round_ms.end());
    }
    for (std::size_t k = 0; k < w.protocol_episodes; ++k) {
      const Episode& ep = run.episodes[k];
      latency_ms.insert(latency_ms.end(), ep.latency_ms.begin(), ep.latency_ms.end());
      submitted += ep.submitted;
      validations += ep.validations;
      loss += ep.expected_loss;
    }
    std::printf("workload=%s seed=%llu episodes=%zu rounds=%zu latency_samples=%zu\n",
                workload.c_str(), static_cast<unsigned long long>(seed), run.episodes.size(),
                round_ms.size(), latency_ms.size());
    report.set("throughput_per_s", ratio(static_cast<double>(run.committed), run.loop_s));
    report.set("step_ms_p90", percentile(round_ms, 0.9));
    report.set("latency_ms_p50", percentile(latency_ms, 0.5));
    report.set("latency_ms_mean", mean(latency_ms));
    report.set("validations_per_tx",
               ratio(static_cast<double>(validations), static_cast<double>(submitted)));
    report.set("governor_expected_loss", loss / static_cast<double>(w.protocol_episodes));
    report.set("setup_s", median(setup));
    report.set("peak_rss_mib", peak_rss_mib());
    report.print(gate.ok, attempted, failed);
    return gate.ok ? 0 : 1;
  }

  // Traced run: each episode runs twice, untraced and then with every
  // handler wrapped in a span timer, until the untraced runs used half the
  // budget. Interleaving the pairs keeps machine drift out of the overhead.
  SimRun plain;
  SimRun traced;
  SpanTable spans;
  Material material;
  for (std::size_t k = 0; !plain.budget_spent(seconds / 2); ++k) {
    plain.add(run_episode(w, mix_seed(seed, k), nullptr, nullptr));
    traced.add(run_episode(w, mix_seed(seed, k), &spans, k == 0 ? &material : nullptr));
  }
  gate_episodes(traced, gate, attempted, failed);
  for (std::size_t k = 0; k < plain.episodes.size(); ++k) {
    gate.check(plain.episodes[k].digest == traced.episodes[k].digest,
               "tracing changed episode " + std::to_string(k) + ": '" +
                   plain.episodes[k].digest + "' vs '" + traced.episodes[k].digest + "'");
  }
  std::printf("workload=%s seed=%llu traced_episodes=%zu\n", workload.c_str(),
              static_cast<unsigned long long>(seed), traced.episodes.size());

  const double loop = traced.loop_s;
  double named_busy = 0.0;
  for (const SpanName& sn : kSpans) {
    SpanTable::Cell sum;
    for (const MsgKind k : sn.kinds) {
      const auto it = spans.cells.find({sn.role, k});
      if (it == spans.cells.end()) continue;
      sum.busy_s += it->second.busy_s;
      sum.count += it->second.count;
    }
    named_busy += sum.busy_s;
    const std::string n = sn.name;
    report.set(n + ".busy_s", sum.busy_s);
    report.set(n + ".count", static_cast<double>(sum.count));
    report.set(n + ".share", ratio(sum.busy_s, loop));
  }
  const double all_busy = spans.total_busy();
  report.set("protocol.other.busy_s", all_busy - named_busy);
  report.set("protocol.other.share", ratio(all_busy - named_busy, loop));
  report.set("sim.loop_s", loop);
  std::vector<double> plain_round_ms;
  for (const Episode& ep : plain.episodes) {
    plain_round_ms.insert(plain_round_ms.end(), ep.round_ms.begin(), ep.round_ms.end());
  }
  report.set("sim.step_ms_p50", percentile(plain_round_ms, 0.5));
  report.set("sim.timer_residual_s", loop - all_busy);
  report.set("sim.timer_residual_share", ratio(loop - all_busy, loop));

  std::uint64_t waves = 0;
  std::uint64_t uploads = 0;
  for (const auto& [t, c] : spans.upload_waves) {
    ++waves;
    uploads += c;
  }
  const auto wave = static_cast<std::size_t>(std::lround(ratio(static_cast<double>(uploads),
                                                               static_cast<double>(waves))));
  crypto_unit_costs(material, wave, seed, report, gate);

  std::vector<double> latency_ms;
  std::uint64_t submitted = 0, committed = 0, blocks = 0, msgs = 0, bytes = 0, screened = 0,
                unchecked = 0, forgeries = 0, equivocations = 0, argues = 0, synced = 0,
                wal = 0, snap = 0;
  for (const Episode& ep : traced.episodes) {
    latency_ms.insert(latency_ms.end(), ep.latency_ms.begin(), ep.latency_ms.end());
    submitted += ep.submitted;
    committed += ep.committed;
    blocks += ep.blocks;
    msgs += ep.network.messages_sent;
    bytes += ep.network.bytes_sent;
    screened += ep.screened;
    unchecked += ep.unchecked;
    forgeries += ep.forgeries;
    equivocations += ep.equivocations;
    argues += ep.argues_accepted;
    synced += ep.blocks_synced;
    wal += ep.wal_bytes;
    snap += ep.snapshot_bytes;
  }
  report.set("sim.commit_latency_ms_p95", percentile(latency_ms, 0.95));
  report.set("sim.commit_latency_ms_p99", percentile(latency_ms, 0.99));
  const double eps = static_cast<double>(traced.episodes.size());
  const auto per_ep = [eps](std::uint64_t v) { return static_cast<double>(v) / eps; };
  report.set("net.messages_per_tx", ratio(static_cast<double>(msgs), static_cast<double>(submitted)));
  report.set("net.bytes_per_tx", ratio(static_cast<double>(bytes), static_cast<double>(submitted)));
  report.set("ledger.txs_per_block", ratio(static_cast<double>(committed), static_cast<double>(blocks)));
  report.set("screening.unchecked_share", ratio(static_cast<double>(unchecked), static_cast<double>(screened)));
  report.set("governor.forgeries_detected", per_ep(forgeries));
  report.set("governor.equivocations_detected", per_ep(equivocations));
  report.set("governor.argues_accepted", per_ep(argues));
  report.set("governor.blocks_synced", per_ep(synced));
  report.set("storage.wal_bytes", per_ep(wal));
  report.set("storage.snapshot_bytes", per_ep(snap));
  storage_unit_costs(material, report, gate);
  wire_unit_costs(message_mix(material.network, mix_seed(seed, 0xA1), kMixSize), report, gate);
  if (w.socket_layers) {
    std::uint64_t plain_msgs = 0;
    std::uint64_t plain_rounds = 0;
    for (const Episode& ep : plain.episodes) {
      plain_msgs += ep.network.messages_sent;
      plain_rounds += ep.round_ms.size();
    }
    SocketLoad load;
    load.open_rate = std::max(1.0, ratio(static_cast<double>(plain_msgs), plain.loop_s));
    load.burst = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(ratio(static_cast<double>(plain_msgs),
                                                      static_cast<double>(plain_rounds * kPeers)))));
    socket_layers(material.network, load, seed, seconds / 4, report, gate);
  }

  const double plain_tps = ratio(static_cast<double>(plain.committed), plain.loop_s);
  const double traced_tps = ratio(static_cast<double>(traced.committed), traced.loop_s);
  report.set("trace.untraced_per_s", plain_tps);
  report.set("trace.traced_per_s", traced_tps);
  report.set("trace.overhead_share", ratio(plain_tps - traced_tps, plain_tps));
  report.print(gate.ok, attempted, failed);
  return gate.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(val, nullptr);
    else if (flag == "--trace") trace = std::atoi(val);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: repbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  try {
    if (workload == "sim_honest" || workload == "sim_byzantine") {
      return run_sim(workload, seed, seconds, trace == 1);
    }
  } catch (const std::exception& e) {
    std::printf("CORRECTNESS FAILURE: exception: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
