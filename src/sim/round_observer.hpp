#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "runtime/trace.hpp"

namespace repchain::sim {

/// Passive trace sink for the self-driving rounds: collects the
/// kLeaderElected / kBlockCommitted events one watched node emits so the
/// harness can assemble RoundRecords without poking the protocol objects
/// between phases.
class RoundObserver final : public runtime::TraceSink {
 public:
  /// Restrict collection to events emitted by `node` (the reference replica);
  /// without a watched node every event is collected.
  void watch(NodeId node) { watched_ = node; }

  void on_event(const runtime::TraceEvent& ev) override;

  /// The leader the watched node elected in `round` (nullopt if the election
  /// never completed there).
  [[nodiscard]] std::optional<GovernorId> leader(Round round) const;

  /// Transactions in the block the watched node committed in `round` (0 when
  /// no block committed).
  [[nodiscard]] std::size_t block_txs(Round round) const;

  /// When the watched node committed its block in `round` (the *last* commit
  /// event of the round, covering catch-up adoptions); nullopt when none.
  [[nodiscard]] std::optional<SimTime> commit_at(Round round) const;

  /// Rounds that emitted at least one watched event.
  [[nodiscard]] std::size_t rounds_seen() const { return rounds_.size(); }

  /// kRoundStalled events across ALL nodes (not just the watched one): the
  /// liveness-watchdog signal the chaos harness fails on.
  [[nodiscard]] std::uint64_t stalled_events() const { return stalled_events_; }

  /// kByzantineEvidence events across ALL nodes: each one is a defense
  /// catching active misbehavior (the adversary harness asserts on these).
  [[nodiscard]] std::uint64_t byzantine_evidence() const { return byzantine_evidence_; }

  /// kCrossShardRejected events across ALL nodes: collectors refusing
  /// transactions whose provider lives in another committee.
  [[nodiscard]] std::uint64_t cross_shard_rejected() const {
    return cross_shard_rejected_;
  }

  /// kDeliveryFailed events across ALL nodes: ReliableChannel retry budgets
  /// exhausted (the envelope was abandoned to the sync/watchdog fallbacks).
  [[nodiscard]] std::uint64_t delivery_failures() const {
    return delivery_failures_;
  }

  /// kPeerDead events across ALL nodes: keepalive timeouts on socket links.
  [[nodiscard]] std::uint64_t dead_peer_events() const {
    return dead_peer_events_;
  }

 private:
  struct Entry {
    std::optional<GovernorId> leader;
    std::size_t block_txs = 0;
    std::optional<SimTime> commit_at;
  };

  std::optional<NodeId> watched_;
  std::unordered_map<Round, Entry> rounds_;
  std::uint64_t stalled_events_ = 0;
  std::uint64_t byzantine_evidence_ = 0;
  std::uint64_t cross_shard_rejected_ = 0;
  std::uint64_t delivery_failures_ = 0;
  std::uint64_t dead_peer_events_ = 0;
};

}  // namespace repchain::sim
