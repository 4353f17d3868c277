#include "runtime/delivery.hpp"

#include <algorithm>
#include <utility>

namespace repchain::runtime {

Delivery::Delivery(NodeContext& ctx, Broadcaster& group, bool reliable,
                   std::uint32_t epoch, Deliver deliver)
    : ctx_(ctx),
      group_(group),
      member_(std::ranges::find(group.members(), ctx.node()) != group.members().end()),
      deliver_(std::move(deliver)) {
  if (reliable) {
    channel_.emplace(ctx_, epoch);
    channel_->set_deliver(deliver_);
  }
}

void Delivery::send(NodeId to, MsgKind kind, const Bytes& payload) {
  if (channel_) {
    channel_->send(to, kind, payload);
  } else {
    ctx_.transport().send(ctx_.node(), to, kind, payload);
  }
}

void Delivery::multicast(std::span<const NodeId> to, MsgKind kind, const Bytes& payload) {
  if (!channel_) {
    ctx_.transport().multicast(ctx_.node(), to, kind, payload);
    return;
  }
  for (const NodeId n : to) channel_->send(n, kind, payload);
}

void Delivery::broadcast(MsgKind kind, const Bytes& payload) {
  if (!channel_) {
    group_.broadcast(ctx_.node(), kind, payload);
    return;
  }
  for (const NodeId n : group_.members()) {
    if (n != ctx_.node()) channel_->send(n, kind, payload);
  }
  if (member_) deliver_local(kind, payload);
}

void Delivery::deliver_local(MsgKind kind, const Bytes& payload) {
  Message self;
  self.from = ctx_.node();
  self.to = ctx_.node();
  self.kind = kind;
  self.payload = payload;
  self.sent_at = ctx_.now();
  self.delivered_at = ctx_.now();
  deliver_(self);
}

bool Delivery::on_message(const Message& msg) {
  if (msg.kind != MsgKind::kReliableData && msg.kind != MsgKind::kReliableAck) {
    return false;
  }
  if (channel_) channel_->on_message(msg);
  return true;
}

void Delivery::on_peer_reconnect(NodeId peer) {
  if (channel_) channel_->on_peer_reconnect(peer);
}

}  // namespace repchain::runtime
