#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"

namespace repchain::protocol {

/// Network directory: maps protocol-level identities (provider/collector/
/// governor ids) to flat network node ids and records the provider-collector
/// link structure of Figure 1 (each provider linked with r collectors, each
/// collector with s providers; r*l = s*n).
class Directory {
 public:
  void add_provider(ProviderId id, NodeId node);
  void add_collector(CollectorId id, NodeId node);
  void add_governor(GovernorId id, NodeId node);

  /// Record that `provider` submits its transactions to `collector`.
  void link(ProviderId provider, CollectorId collector);

  /// Node of a registered id; throws ConfigError for an unknown one.
  [[nodiscard]] NodeId node_of(ProviderId id) const;
  [[nodiscard]] NodeId node_of(CollectorId id) const;
  [[nodiscard]] NodeId node_of(GovernorId id) const;

  /// Non-throwing lookups for ids read from a message payload: nullopt for
  /// an id that names no registered node, so the handler drops the message.
  [[nodiscard]] std::optional<NodeId> find_node(ProviderId id) const;
  [[nodiscard]] std::optional<NodeId> find_node(CollectorId id) const;
  [[nodiscard]] std::optional<NodeId> find_node(GovernorId id) const;

  [[nodiscard]] std::optional<ProviderId> provider_at(NodeId node) const;
  [[nodiscard]] std::optional<CollectorId> collector_at(NodeId node) const;
  [[nodiscard]] std::optional<GovernorId> governor_at(NodeId node) const;

  [[nodiscard]] const std::vector<CollectorId>& collectors_of(ProviderId id) const;
  [[nodiscard]] const std::vector<ProviderId>& providers_of(CollectorId id) const;
  [[nodiscard]] bool linked(ProviderId provider, CollectorId collector) const;

  [[nodiscard]] const std::vector<ProviderId>& providers() const { return providers_; }
  [[nodiscard]] const std::vector<CollectorId>& collectors() const { return collectors_; }
  [[nodiscard]] const std::vector<GovernorId>& governors() const { return governors_; }
  [[nodiscard]] std::vector<NodeId> governor_nodes() const;
  [[nodiscard]] std::vector<NodeId> collector_nodes_of(ProviderId id) const;

 private:
  std::vector<ProviderId> providers_;
  std::vector<CollectorId> collectors_;
  std::vector<GovernorId> governors_;
  std::unordered_map<ProviderId, NodeId> provider_nodes_;
  std::unordered_map<CollectorId, NodeId> collector_nodes_;
  std::unordered_map<GovernorId, NodeId> governor_nodes_;
  std::unordered_map<NodeId, ProviderId> node_providers_;
  std::unordered_map<NodeId, CollectorId> node_collectors_;
  std::unordered_map<NodeId, GovernorId> node_governors_;
  std::unordered_map<ProviderId, std::vector<CollectorId>> links_by_provider_;
  std::unordered_map<CollectorId, std::vector<ProviderId>> links_by_collector_;
};

}  // namespace repchain::protocol
