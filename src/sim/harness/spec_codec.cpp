#include "sim/harness/spec_codec.hpp"

#include <string>

#include "common/errors.hpp"
#include "common/serial.hpp"

namespace repchain::sim {
namespace {

// v1 predates sharding; v2 appends shard_count / anchor_interval /
// cross_shard_probability / bounded_history; v3 drops the scenario-level
// reliable_delivery boolean (the governor's flag is the one setting). The
// version byte leads the encoding, so universes of different versions can
// never present the same genesis hash.
constexpr std::uint8_t kConfigVersion = 3;

/// Crash and adversary plans index the live node arrays directly, so an
/// index past its topology count must never reach the harness.
void validate_plans(const ScenarioConfig& config) {
  const auto& topo = config.topology;
  const auto check = [](const char* what, std::size_t index, std::size_t count) {
    if (index >= count)
      throw ConfigError(std::string(what) + " index " + std::to_string(index) +
                        " out of range (" + std::to_string(count) + ")");
  };
  for (const CrashPlan& plan : config.crashes) {
    check("crash plan governor", plan.governor, topo.governors);
    if (plan.crash_round == 0 || plan.restart_round <= plan.crash_round)
      throw ConfigError("crash plan: needs 1 <= crash_round < restart_round");
  }
  const auto& adv = config.adversary;
  for (const auto& s : adv.equivocating_leaders)
    check("equivocating leader", s.governor, topo.governors);
  for (const auto& s : adv.lying_sync_peers)
    check("lying sync peer", s.governor, topo.governors);
  for (const auto& s : adv.byzantine_collectors)
    check("Byzantine collector", s.collector, topo.collectors);
  for (const auto& s : adv.double_spenders)
    check("double spender", s.provider, topo.providers);
}

}  // namespace

void require_encodable(const ScenarioConfig& c) {
  if (!c.crashes.empty())
    throw ConfigError("encodable config cannot schedule crashes");
  if (!c.faults.empty())
    throw ConfigError("encodable config cannot schedule network faults");
  if (!c.adversary.empty())
    throw ConfigError("encodable config cannot schedule an adversary plan");
  if (c.durable_governors)
    throw ConfigError("encodable config cannot attach durable governors");
  if (!c.storage_dir.empty())
    throw ConfigError("encodable config cannot use on-disk storage");
}

void require_cluster_runnable(const ScenarioConfig& c) {
  require_encodable(c);
  if (c.shard_count > 1)
    throw ConfigError("cluster config cannot host a sharded deployment "
                      "(one committee graph per run)");
}

void normalize_config(ScenarioConfig& config) {
  config.topology.validate();
  config.governor.rep.validate();
  validate_plans(config);
  if (config.shard_count == 0)
    throw ConfigError("shard_count must be >= 1");
  if (config.shard_count > config.topology.governors)
    throw ConfigError("shard_count exceeds the governor count");
  if (config.anchor_interval == 0)
    throw ConfigError("anchor_interval must be >= 1");
  if (config.cross_shard_probability < 0.0 || config.cross_shard_probability > 1.0)
    throw ConfigError("cross_shard_probability must be within [0, 1]");
  if (config.cross_shard_probability > 0.0 && config.shard_count == 1)
    throw ConfigError("cross_shard_probability needs shard_count > 1");
  if (config.shard_count > 1 && config.governor_visibility < 1.0)
    throw ConfigError(
        "partial governor visibility is not supported with shard_count > 1 "
        "(visibility views are drawn over the global collector set)");
  config.governor.enable_label_gossip |= config.enable_label_gossip;
  // A scheduled adversary switches on the paired defenses: the Byzantine
  // checks (proposal echo + 2Delta hold, sync corroboration, double-spend
  // serial guard) and the label gossip the equivocation detector feeds on.
  if (!config.adversary.empty()) {
    config.governor.byzantine_defense = true;
    config.governor.enable_label_gossip = true;
  }
  // Fault schedules default the liveness watchdog on; clean runs keep it off
  // so the crash-recovery goldens (whose stalls are the *expected* outcome of
  // a dead governor) stay bit-identical.
  if (!config.faults.empty() && config.governor.watchdog_rounds == 0) {
    config.governor.watchdog_rounds = 2;
  }
}

Bytes encode_config(const ScenarioConfig& c) {
  require_encodable(c);
  BinaryWriter w;
  w.u8(kConfigVersion);
  w.u64(c.topology.providers);
  w.u64(c.topology.collectors);
  w.u64(c.topology.governors);
  w.u64(c.topology.r);
  const auto& rep = c.governor.rep;
  w.f64(rep.beta);
  w.f64(rep.f);
  w.f64(rep.mu);
  w.f64(rep.nu);
  w.i64(rep.conceal_checked_penalty);
  w.u64(rep.argue_latency_u);
  w.u64(c.governor.block_limit);
  w.u64(c.governor.aggregation_delta);
  w.boolean(c.governor.enable_label_gossip);
  w.u64(c.governor.snapshot_interval);
  w.u64(c.governor.wal_compaction_appends);
  w.boolean(c.governor.reliable_delivery);
  w.u64(c.governor.watchdog_rounds);
  w.u32(c.governor.channel_epoch);
  w.boolean(c.governor.byzantine_defense);
  w.u64(c.latency.min_delay);
  w.u64(c.latency.max_delay);
  w.u64(c.rounds);
  w.u64(c.txs_per_provider_per_round);
  w.f64(c.p_valid);
  w.boolean(c.providers_active);
  w.f64(c.audit_probability);
  w.u32(static_cast<std::uint32_t>(c.behaviors.size()));
  for (const auto& b : c.behaviors) {
    w.f64(b.accuracy);
    w.f64(b.flip_probability);
    w.f64(b.drop_probability);
    w.f64(b.forge_probability);
    w.boolean(b.equivocate);
    w.u32(static_cast<std::uint32_t>(b.flip_by_provider.size()));
    for (const auto& [provider, p] : b.flip_by_provider) {
      w.u32(provider);
      w.f64(p);
    }
  }
  w.u32(static_cast<std::uint32_t>(c.governor_stakes.size()));
  for (const std::uint64_t s : c.governor_stakes) w.u64(s);
  w.f64(c.reward_per_valid_tx);
  w.u64(c.validation_cost);
  w.f64(c.governor_visibility);
  w.boolean(c.enable_label_gossip);
  w.u64(c.seed);
  w.u64(c.shard_count);
  w.u64(c.anchor_interval);
  w.f64(c.cross_shard_probability);
  w.u64(c.bounded_history);
  return std::move(w).take();
}

ScenarioConfig decode_config(BytesView data) {
  BinaryReader r(data);
  if (r.u8() != kConfigVersion) throw DecodeError("unknown config version");
  ScenarioConfig c;
  c.topology.providers = r.u64();
  c.topology.collectors = r.u64();
  c.topology.governors = r.u64();
  c.topology.r = r.u64();
  auto& rep = c.governor.rep;
  rep.beta = r.f64();
  rep.f = r.f64();
  rep.mu = r.f64();
  rep.nu = r.f64();
  rep.conceal_checked_penalty = r.i64();
  rep.argue_latency_u = r.u64();
  c.governor.block_limit = r.u64();
  c.governor.aggregation_delta = r.u64();
  c.governor.enable_label_gossip = r.boolean();
  c.governor.snapshot_interval = r.u64();
  c.governor.wal_compaction_appends = r.u64();
  c.governor.reliable_delivery = r.boolean();
  c.governor.watchdog_rounds = r.u64();
  c.governor.channel_epoch = r.u32();
  c.governor.byzantine_defense = r.boolean();
  c.latency.min_delay = r.u64();
  c.latency.max_delay = r.u64();
  c.rounds = r.u64();
  c.txs_per_provider_per_round = r.u64();
  c.p_valid = r.f64();
  c.providers_active = r.boolean();
  c.audit_probability = r.f64();
  const std::uint32_t behaviors = r.u32();
  r.expect_count(behaviors, 4 * 8 + 1 + 4);
  for (std::uint32_t i = 0; i < behaviors; ++i) {
    protocol::CollectorBehavior b;
    b.accuracy = r.f64();
    b.flip_probability = r.f64();
    b.drop_probability = r.f64();
    b.forge_probability = r.f64();
    b.equivocate = r.boolean();
    const std::uint32_t overrides = r.u32();
    r.expect_count(overrides, 4 + 8);
    for (std::uint32_t k = 0; k < overrides; ++k) {
      const std::uint32_t provider = r.u32();
      b.flip_by_provider.emplace_back(provider, r.f64());
    }
    c.behaviors.push_back(std::move(b));
  }
  const std::uint32_t stakes = r.u32();
  r.expect_count(stakes, 8);
  for (std::uint32_t i = 0; i < stakes; ++i) c.governor_stakes.push_back(r.u64());
  c.reward_per_valid_tx = r.f64();
  c.validation_cost = r.u64();
  c.governor_visibility = r.f64();
  c.enable_label_gossip = r.boolean();
  c.seed = r.u64();
  c.shard_count = r.u64();
  c.anchor_interval = r.u64();
  c.cross_shard_probability = r.f64();
  c.bounded_history = r.u64();
  r.expect_done();
  return c;
}

crypto::Hash256 config_genesis(const ScenarioConfig& config) {
  return crypto::Sha256::hash(encode_config(config));
}

}  // namespace repchain::sim
