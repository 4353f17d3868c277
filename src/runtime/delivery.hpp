#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "runtime/broadcaster.hpp"
#include "runtime/message.hpp"
#include "runtime/node_context.hpp"
#include "runtime/reliable_channel.hpp"

namespace repchain::runtime {

/// The one place a node's sends choose their primitive. Every protocol node
/// owns one and sends through it; only deliberately Byzantine sends (an
/// equivocating collector's per-governor labels) bypass it.
///
/// Atomic mode (the paper's model, §3.1): `send` and `multicast` are the bare
/// transport calls, and `broadcast` is the node's total-order group — its
/// broadcast_provider / broadcast_collector / broadcast_governor.
///
/// Reliable mode: every call rides a per-node ReliableChannel (ack,
/// retransmit with backoff, dedup). A `broadcast` sends one channel message
/// to every other group member in member order, then hands a member its own
/// copy synchronously, as the group would have delivered it. The channel
/// guarantees delivery, not order, so every receive path of a reliable node
/// must tolerate reordering.
class Delivery {
 public:
  using Deliver = std::function<void(const Message&)>;

  /// `group` is the node's broadcast group; the node need not be a member
  /// (a provider broadcasts to its collectors, a collector to the
  /// governors). `deliver` is the node's dispatch entry point: it receives
  /// the channel's unwrapped messages and the node's local copies. `epoch`
  /// is the node's incarnation and only matters in reliable mode.
  Delivery(NodeContext& ctx, Broadcaster& group, bool reliable, std::uint32_t epoch,
           Deliver deliver);

  Delivery(const Delivery&) = delete;
  Delivery& operator=(const Delivery&) = delete;
  Delivery(Delivery&&) = delete;
  Delivery& operator=(Delivery&&) = delete;

  void send(NodeId to, MsgKind kind, const Bytes& payload);
  void multicast(std::span<const NodeId> to, MsgKind kind, const Bytes& payload);
  void broadcast(MsgKind kind, const Bytes& payload);

  /// Hand (kind, payload) to the node's own dispatch now, as a message from
  /// itself. Mode-independent: no copy crosses the network.
  void deliver_local(MsgKind kind, const Bytes& payload);

  /// Consume channel envelopes (kReliableData / kReliableAck): the channel
  /// handles them in reliable mode, atomic mode drops them. Returns true iff
  /// `msg` was an envelope; the node dispatches everything else itself.
  bool on_message(const Message& msg);

  /// The transport re-established a link to `peer`: refresh the channel's
  /// in-flight budgets for it (no-op in atomic mode).
  void on_peer_reconnect(NodeId peer);

  [[nodiscard]] bool reliable() const { return channel_.has_value(); }
  /// The reliable channel, or nullptr in atomic mode.
  [[nodiscard]] const ReliableChannel* channel() const {
    return channel_ ? &*channel_ : nullptr;
  }

 private:
  NodeContext& ctx_;
  Broadcaster& group_;
  bool member_;  // the node is one of group_'s members
  Deliver deliver_;
  std::optional<ReliableChannel> channel_;
};

}  // namespace repchain::runtime
