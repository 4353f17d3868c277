#include "sim/harness/system_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"
#include "crypto/keygen.hpp"
#include "sim/topology.hpp"

namespace repchain::sim {

protocol::RoundTiming round_timing(const ScenarioConfig& config) {
  return protocol::RoundTiming::derive(
      config.latency.max_delay, config.governor.aggregation_delta,
      static_cast<SimDuration>(config.topology.providers *
                               config.txs_per_provider_per_round) *
          kMillisecond,
      config.governor.enable_label_gossip);
}

SystemModel SystemModel::build(const ScenarioConfig& config,
                               const Rng& scenario_rng) {
  SystemModel m;
  Rng key_rng = scenario_rng.derive(2);
  m.im = std::make_unique<identity::IdentityManager>(crypto::random_seed(key_rng));

  const auto& topo = config.topology;

  m.timing = round_timing(config);

  // Node ids and identities for every member: sequential flat ids in
  // provider, collector, governor order (the order SimNetwork::add_node
  // assigns them), one key drawn per member.
  std::uint32_t next_node = 0;
  for (std::size_t i = 0; i < topo.providers; ++i) {
    const NodeId node(next_node++);
    m.directory.add_provider(ProviderId(static_cast<std::uint32_t>(i)), node);
    m.provider_keys.emplace_back(crypto::random_seed(key_rng));
    m.im->enroll(node, identity::Role::kProvider, m.provider_keys.back().public_key());
  }
  for (std::size_t i = 0; i < topo.collectors; ++i) {
    const NodeId node(next_node++);
    m.directory.add_collector(CollectorId(static_cast<std::uint32_t>(i)), node);
    m.collector_keys.emplace_back(crypto::random_seed(key_rng));
    m.im->enroll(node, identity::Role::kCollector, m.collector_keys.back().public_key());
  }
  for (std::size_t i = 0; i < topo.governors; ++i) {
    const NodeId node(next_node++);
    m.directory.add_governor(GovernorId(static_cast<std::uint32_t>(i)), node);
    m.governor_keys.emplace_back(crypto::random_seed(key_rng));
    m.im->enroll(node, identity::Role::kGovernor, m.governor_keys.back().public_key());
  }
  build_links(topo, m.directory);

  // Genesis stake (retained: a restarted governor without a snapshot starts
  // from genesis again).
  for (std::size_t i = 0; i < topo.governors; ++i) {
    const std::uint64_t units =
        i < config.governor_stakes.size() ? config.governor_stakes[i] : 1;
    m.genesis.set(GovernorId(static_cast<std::uint32_t>(i)), units);
  }

  if (config.governor_visibility <= 0.0 || config.governor_visibility > 1.0) {
    throw ConfigError("governor_visibility must be in (0, 1]");
  }
  for (std::size_t i = 0; i < topo.governors; ++i) {
    std::vector<CollectorId> visible;
    if (config.governor_visibility < 1.0) {
      const auto count = static_cast<std::size_t>(
          std::ceil(config.governor_visibility * static_cast<double>(topo.collectors)));
      for (std::size_t k = 0; k < std::max<std::size_t>(count, 1); ++k) {
        visible.push_back(
            CollectorId(static_cast<std::uint32_t>((i + k) % topo.collectors)));
      }
    }
    m.governor_visible.push_back(std::move(visible));
  }

  // Committee partition: per-shard directories over the same global ids and
  // node ids, with a per-committee circulant link structure. At
  // shard_count = 1 the single shard directory replays build_links exactly
  // (local member order == global id order, r_s == r), so the classic
  // deployment is reproduced bit-for-bit.
  m.router = protocol::ShardRouter(config.shard_count, topo.providers,
                                   topo.collectors, topo.governors);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    const ShardId shard(static_cast<std::uint32_t>(s));
    protocol::Directory d;
    const auto& ps = m.router.providers_of(shard);
    const auto& cs = m.router.collectors_of(shard);
    for (const ProviderId p : ps) d.add_provider(p, m.directory.node_of(p));
    for (const CollectorId c : cs) d.add_collector(c, m.directory.node_of(c));
    for (const GovernorId g : m.router.governors_of(shard)) {
      d.add_governor(g, m.directory.node_of(g));
    }
    const std::size_t r_s = std::min(topo.r, cs.size());
    for (std::size_t ip = 0; ip < ps.size(); ++ip) {
      for (std::size_t j = 0; j < r_s; ++j) {
        d.link(ps[ip], cs[(ip * r_s + j) % cs.size()]);
      }
    }
    protocol::StakeLedger genesis;
    for (const GovernorId g : m.router.governors_of(shard)) {
      const std::uint64_t units = g.value() < config.governor_stakes.size()
                                      ? config.governor_stakes[g.value()]
                                      : 1;
      genesis.set(g, units);
    }
    m.shard_directories.push_back(std::move(d));
    m.shard_genesis.push_back(std::move(genesis));
  }
  return m;
}

}  // namespace repchain::sim
