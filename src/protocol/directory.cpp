#include "protocol/directory.hpp"

#include <algorithm>
#include <optional>

#include "common/errors.hpp"

namespace repchain::protocol {

namespace {
template <typename Map, typename Key>
std::optional<NodeId> find_in(const Map& map, Key key) {
  const auto it = map.find(key);
  return it == map.end() ? std::nullopt : std::optional(it->second);
}

template <typename Map, typename Key>
NodeId lookup(const Map& map, Key key, const char* what) {
  const auto node = find_in(map, key);
  if (!node) throw ConfigError(std::string("directory: unknown ") + what);
  return *node;
}
}  // namespace

void Directory::add_provider(ProviderId id, NodeId node) {
  if (provider_nodes_.contains(id)) throw ConfigError("duplicate provider id");
  providers_.push_back(id);
  provider_nodes_.emplace(id, node);
  node_providers_.emplace(node, id);
}

void Directory::add_collector(CollectorId id, NodeId node) {
  if (collector_nodes_.contains(id)) throw ConfigError("duplicate collector id");
  collectors_.push_back(id);
  collector_nodes_.emplace(id, node);
  node_collectors_.emplace(node, id);
}

void Directory::add_governor(GovernorId id, NodeId node) {
  if (governor_nodes_.contains(id)) throw ConfigError("duplicate governor id");
  governors_.push_back(id);
  governor_nodes_.emplace(id, node);
  node_governors_.emplace(node, id);
}

void Directory::link(ProviderId provider, CollectorId collector) {
  if (!provider_nodes_.contains(provider) || !collector_nodes_.contains(collector)) {
    throw ConfigError("link between unregistered nodes");
  }
  auto& cs = links_by_provider_[provider];
  if (std::find(cs.begin(), cs.end(), collector) != cs.end()) return;
  cs.push_back(collector);
  links_by_collector_[collector].push_back(provider);
}

NodeId Directory::node_of(ProviderId id) const {
  return lookup(provider_nodes_, id, "provider");
}
NodeId Directory::node_of(CollectorId id) const {
  return lookup(collector_nodes_, id, "collector");
}
NodeId Directory::node_of(GovernorId id) const {
  return lookup(governor_nodes_, id, "governor");
}

std::optional<NodeId> Directory::find_node(ProviderId id) const {
  return find_in(provider_nodes_, id);
}
std::optional<NodeId> Directory::find_node(CollectorId id) const {
  return find_in(collector_nodes_, id);
}
std::optional<NodeId> Directory::find_node(GovernorId id) const {
  return find_in(governor_nodes_, id);
}

std::optional<ProviderId> Directory::provider_at(NodeId node) const {
  const auto it = node_providers_.find(node);
  return it == node_providers_.end() ? std::nullopt : std::optional(it->second);
}
std::optional<CollectorId> Directory::collector_at(NodeId node) const {
  const auto it = node_collectors_.find(node);
  return it == node_collectors_.end() ? std::nullopt : std::optional(it->second);
}
std::optional<GovernorId> Directory::governor_at(NodeId node) const {
  const auto it = node_governors_.find(node);
  return it == node_governors_.end() ? std::nullopt : std::optional(it->second);
}

const std::vector<CollectorId>& Directory::collectors_of(ProviderId id) const {
  static const std::vector<CollectorId> kEmpty;
  const auto it = links_by_provider_.find(id);
  return it == links_by_provider_.end() ? kEmpty : it->second;
}

const std::vector<ProviderId>& Directory::providers_of(CollectorId id) const {
  static const std::vector<ProviderId> kEmpty;
  const auto it = links_by_collector_.find(id);
  return it == links_by_collector_.end() ? kEmpty : it->second;
}

bool Directory::linked(ProviderId provider, CollectorId collector) const {
  const auto& cs = collectors_of(provider);
  return std::find(cs.begin(), cs.end(), collector) != cs.end();
}

std::vector<NodeId> Directory::governor_nodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(governors_.size());
  for (GovernorId g : governors_) nodes.push_back(node_of(g));
  return nodes;
}

std::vector<NodeId> Directory::collector_nodes_of(ProviderId id) const {
  std::vector<NodeId> nodes;
  for (CollectorId c : collectors_of(id)) nodes.push_back(node_of(c));
  return nodes;
}

}  // namespace repchain::protocol
