#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "crypto/ed25519.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/directory.hpp"
#include "runtime/broadcaster.hpp"
#include "runtime/delivery.hpp"
#include "runtime/node_context.hpp"

namespace repchain::protocol {

/// Behaviour model of a collector. The honest profile verifies, labels
/// truthfully and uploads everything; the knobs below realize the three
/// misbehaviour classes of §4.2 plus observation noise:
///   (1) misreporting  — flip_probability (deliberate) / accuracy (noise),
///   (2) concealing    — drop_probability,
///   (3) forging       — forge_probability (a fabricated transaction with a
///       bogus provider signature is attached per genuine one received),
/// plus equivocation (different labels to different governors), which models
/// a Byzantine collector stepping outside the atomic-broadcast primitive.
struct CollectorBehavior {
  double accuracy = 1.0;
  double flip_probability = 0.0;
  double drop_probability = 0.0;
  double forge_probability = 0.0;
  bool equivocate = false;
  /// Targeted misreporting (adversary layer): per-provider flip-probability
  /// overrides as (provider id value, probability) pairs; unlisted providers
  /// use flip_probability. Same single rng draw either way, so installing an
  /// empty override list leaves the behavioral stream untouched.
  std::vector<std::pair<std::uint32_t, double>> flip_by_provider;

  [[nodiscard]] static CollectorBehavior honest() { return {}; }
  [[nodiscard]] static CollectorBehavior noisy(double accuracy) {
    CollectorBehavior b;
    b.accuracy = accuracy;
    return b;
  }
  [[nodiscard]] static CollectorBehavior adversarial() {
    CollectorBehavior b;
    b.flip_probability = 1.0;
    return b;
  }
  [[nodiscard]] static CollectorBehavior misreporting(double flip) {
    CollectorBehavior b;
    b.flip_probability = flip;
    return b;
  }
  [[nodiscard]] static CollectorBehavior concealing(double drop) {
    CollectorBehavior b;
    b.drop_probability = drop;
    return b;
  }
  [[nodiscard]] static CollectorBehavior forging(double rate) {
    CollectorBehavior b;
    b.forge_probability = rate;
    return b;
  }
  [[nodiscard]] static CollectorBehavior equivocating() {
    CollectorBehavior b;
    b.equivocate = true;
    return b;
  }
};

/// Per-collector activity counters.
struct CollectorStats {
  std::uint64_t received = 0;
  std::uint64_t uploaded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t forged = 0;
  std::uint64_t equivocated = 0;  // uploads sent with per-governor labels
  std::uint64_t rejected_bad_signature = 0;
  std::uint64_t rejected_cross_shard = 0;  // provider in another committee
};

/// A collector node (tier 2): verifies provider signatures, labels
/// transactions ±1 per its (mis)behaviour model, signs and atomically
/// broadcasts the labeled transaction to all governors (Algorithm 1).
///
/// Behavioral randomness draws from the NodeContext's per-node rng stream.
class Collector {
 public:
  /// `reliable_delivery` selects the node's runtime::Delivery mode for its
  /// uploads to `upload_group`; equivocators keep their bare per-governor
  /// sends (a Byzantine collector steps outside the delivery primitive
  /// either way).
  Collector(CollectorId id, runtime::NodeContext& ctx, crypto::SigningKey key,
            const identity::IdentityManager& im, ledger::ValidationOracle& oracle,
            const Directory& directory, runtime::Broadcaster& upload_group,
            CollectorBehavior behavior, bool reliable_delivery = false);

  /// Network delivery entry point (kProviderTx messages).
  void on_message(const runtime::Message& msg);

  [[nodiscard]] CollectorId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const CollectorBehavior& behavior() const { return behavior_; }
  /// Swap the behavior model in place — the adversary layer schedules
  /// Byzantine windows by swapping to a deviating profile and back.
  void set_behavior(CollectorBehavior behavior) { behavior_ = behavior; }
  /// Install the committee membership test of a sharded deployment: a
  /// transaction whose provider fails the predicate is refused before
  /// authentication with the explicit cross-shard code
  /// (wire::ProtocolError::kCrossShardTx, TraceKind::kCrossShardRejected).
  /// Never installed on classic single-committee runs, so their intake path
  /// is untouched.
  void set_shard_filter(std::function<bool(ProviderId)> same_shard) {
    same_shard_ = std::move(same_shard);
  }
  [[nodiscard]] const CollectorStats& stats() const { return stats_; }

  /// Transport reconnect notification: refresh the reliable channel's retry
  /// budget for `peer` (no-op in atomic mode).
  void on_peer_reconnected(NodeId peer) { out_.on_peer_reconnect(peer); }

 private:
  void upload(const ledger::Transaction& tx, ledger::Label label);
  void upload_forgery(ProviderId provider);

  CollectorId id_;
  runtime::NodeContext& ctx_;
  NodeId node_;
  crypto::SigningKey key_;
  const identity::IdentityManager& im_;
  ledger::ValidationOracle& oracle_;
  const Directory& directory_;
  runtime::Delivery out_;
  CollectorBehavior behavior_;
  CollectorStats stats_;
  std::function<bool(ProviderId)> same_shard_;  // empty = single committee
  std::uint64_t forge_seq_ = 1'000'000'000;  // distinct seq space for fabrications
};

}  // namespace repchain::protocol
