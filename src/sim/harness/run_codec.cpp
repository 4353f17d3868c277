#include "sim/harness/run_codec.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/serial.hpp"
#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

void encode_network(BinaryWriter& w, const net::NetworkStats& n) {
  w.u64(n.messages_sent);
  w.u64(n.messages_dropped);
  w.u64(n.bytes_sent);
  w.u64(n.duplicates_ignored);
  // std::map iteration is sorted by kind: canonical.
  w.u32(static_cast<std::uint32_t>(n.by_kind.size()));
  for (const auto& [kind, count] : n.by_kind) {
    w.u16(static_cast<std::uint16_t>(kind));
    w.u64(count);
  }
  w.u32(static_cast<std::uint32_t>(n.bytes_by_kind.size()));
  for (const auto& [kind, bytes] : n.bytes_by_kind) {
    w.u16(static_cast<std::uint16_t>(kind));
    w.u64(bytes);
  }
}

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

RunResult simulate_run(ScenarioConfig config, GovernorLink* remote) {
  Scenario scenario(std::move(config), remote);
  scenario.run();
  RunResult r;
  r.summary = scenario.summary();
  r.history = scenario.history();
  r.rewards = scenario.collector_rewards();
  r.leader_counts = scenario.leader_counts();
  return r;
}

Bytes encode_run_result(const RunResult& r) {
  BinaryWriter w;
  const ScenarioSummary& s = r.summary;
  w.u64(s.txs_submitted);
  w.u64(s.blocks);
  w.u64(s.chain_valid_txs);
  w.u64(s.chain_unchecked_txs);
  w.u64(s.chain_argued_txs);
  w.boolean(s.agreement);
  w.boolean(s.chains_audit_ok);
  w.u64(s.stalled_events);
  w.u64(s.byzantine_evidence);
  w.u64(s.validations_total);
  w.f64(s.mean_governor_expected_loss);
  w.f64(s.mean_governor_realized_loss);
  w.u64(s.mean_governor_mistakes);
  encode_network(w, s.network);
  w.u32(static_cast<std::uint32_t>(s.shards.size()));
  for (const ShardSummary& sh : s.shards) {
    w.u32(sh.shard.value());
    w.u64(sh.providers);
    w.u64(sh.collectors);
    w.u64(sh.governors);
    w.u64(sh.blocks);
    w.u64(sh.chain_valid_txs);
    w.u64(sh.chain_unchecked_txs);
    w.u64(sh.chain_argued_txs);
    w.boolean(sh.agreement);
    w.boolean(sh.chains_audit_ok);
  }
  w.u64(s.cross_shard_rejected);
  w.u64(s.anchors_recorded);
  w.boolean(s.anchors_ok);
  w.u32(static_cast<std::uint32_t>(r.history.size()));
  for (const RoundRecord& rec : r.history) {
    w.u64(rec.round);
    w.boolean(rec.leader.has_value());
    w.u32(rec.leader ? rec.leader->value() : 0);
    w.u64(rec.block_txs);
    w.u64(rec.validations_delta);
    w.u64(rec.messages_delta);
    w.f64(rec.expected_loss_delta);
    w.u64(rec.argues_delta);
  }
  w.u32(static_cast<std::uint32_t>(r.rewards.size()));
  for (const double v : r.rewards) w.f64(v);
  w.u32(static_cast<std::uint32_t>(r.leader_counts.size()));
  for (const std::uint64_t v : r.leader_counts) w.u64(v);
  return std::move(w).take();
}

std::string render_run_result(const RunResult& r) {
  std::string out;
  char line[160];
  const ScenarioSummary& s = r.summary;
  auto field = [&](const char* name, std::uint64_t v) {
    std::snprintf(line, sizeof(line), "%s: %" PRIu64 "\n", name, v);
    out += line;
  };
  field("txs_submitted", s.txs_submitted);
  field("blocks", s.blocks);
  field("chain_valid_txs", s.chain_valid_txs);
  field("chain_unchecked_txs", s.chain_unchecked_txs);
  field("chain_argued_txs", s.chain_argued_txs);
  field("agreement", s.agreement ? 1 : 0);
  field("chains_audit_ok", s.chains_audit_ok ? 1 : 0);
  field("stalled_events", s.stalled_events);
  field("byzantine_evidence", s.byzantine_evidence);
  field("validations_total", s.validations_total);
  out += "mean_governor_expected_loss: " + hexf(s.mean_governor_expected_loss) + "\n";
  out += "mean_governor_realized_loss: " + hexf(s.mean_governor_realized_loss) + "\n";
  field("mean_governor_mistakes", s.mean_governor_mistakes);
  field("network.messages_sent", s.network.messages_sent);
  field("network.messages_dropped", s.network.messages_dropped);
  field("network.bytes_sent", s.network.bytes_sent);
  field("network.duplicates_ignored", s.network.duplicates_ignored);
  for (const auto& [kind, count] : s.network.by_kind) {
    std::snprintf(line, sizeof(line), "network.by_kind[%u]: %" PRIu64 "\n",
                  static_cast<unsigned>(kind), count);
    out += line;
  }
  for (const auto& [kind, bytes] : s.network.bytes_by_kind) {
    std::snprintf(line, sizeof(line), "network.bytes_by_kind[%u]: %" PRIu64 "\n",
                  static_cast<unsigned>(kind), bytes);
    out += line;
  }
  for (const ShardSummary& sh : s.shards) {
    std::snprintf(line, sizeof(line),
                  "shard %u: providers=%zu collectors=%zu governors=%zu blocks=%" PRIu64
                  " valid=%" PRIu64 " unchecked=%" PRIu64 " argued=%" PRIu64
                  " agreement=%d audit=%d\n",
                  static_cast<unsigned>(sh.shard.value()), sh.providers, sh.collectors,
                  sh.governors, sh.blocks, sh.chain_valid_txs, sh.chain_unchecked_txs,
                  sh.chain_argued_txs, sh.agreement ? 1 : 0, sh.chains_audit_ok ? 1 : 0);
    out += line;
  }
  field("cross_shard_rejected", s.cross_shard_rejected);
  field("anchors_recorded", s.anchors_recorded);
  field("anchors_ok", s.anchors_ok ? 1 : 0);
  for (const RoundRecord& rec : r.history) {
    std::snprintf(line, sizeof(line),
                  "round %" PRIu64 ": leader=%d block_txs=%zu validations=%" PRIu64
                  " messages=%" PRIu64 " expected_loss_delta=%s argues=%" PRIu64 "\n",
                  rec.round, rec.leader ? static_cast<int>(rec.leader->value()) : -1,
                  rec.block_txs, rec.validations_delta, rec.messages_delta,
                  hexf(rec.expected_loss_delta).c_str(), rec.argues_delta);
    out += line;
  }
  for (std::size_t i = 0; i < r.rewards.size(); ++i) {
    std::snprintf(line, sizeof(line), "reward[%zu]: %s\n", i,
                  hexf(r.rewards[i]).c_str());
    out += line;
  }
  for (std::size_t i = 0; i < r.leader_counts.size(); ++i) {
    std::snprintf(line, sizeof(line), "leader_counts[%zu]: %" PRIu64 "\n", i,
                  r.leader_counts[i]);
    out += line;
  }
  return out;
}

}  // namespace repchain::sim
