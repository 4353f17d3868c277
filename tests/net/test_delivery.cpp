// runtime::Delivery over a real SimNetwork, table-driven over both modes
// (atomic, reliable) and both seats (the sending node is or is not a member
// of its broadcast group): every call reaches the same receivers with the
// same payloads, a member's own broadcast copy arrives exactly once, channel
// envelopes never reach a node's dispatch, and a reconnect refreshes
// in-flight budgets only where a channel exists.
#include "runtime/delivery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "runtime/atomic_broadcast.hpp"
#include "runtime/node_context.hpp"
#include "runtime/reliable_channel.hpp"

namespace repchain::net {
namespace {

using runtime::Delivery;

// Plain bytes, no pointer and no padding: gtest lists a parameter by its raw
// bytes, and ctest takes that listing as the test's name. A pointer here
// would put a load address in the name, and padding uninitialised bytes.
struct Case {
  char name[18];
  bool reliable;
  bool member;  // node 0, the sender under test, is in the group
};

/// Four nodes, each dispatching through its own Delivery the way protocol
/// nodes do: envelopes go to the seam, everything else is recorded.
struct Mesh {
  explicit Mesh(const Case& c)
      : net(queue, Rng(7), LatencyModel{1 * kMillisecond, 10 * kMillisecond}) {
    for (std::size_t i = 0; i < 4; ++i) ids.push_back(net.add_node());
    members = c.member ? std::vector<NodeId>{ids[0], ids[1], ids[2]}
                       : std::vector<NodeId>{ids[1], ids[2], ids[3]};
    group = std::make_unique<runtime::AtomicBroadcastGroup>(net, members);
    received.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ctxs.emplace_back(ids[i], net, Rng(100 + i));
      nodes.emplace_back(ctxs.back(), *group, c.reliable, /*epoch=*/0,
                         [this, i](const Message& m) {
                           received[i].push_back(m);
                           if (on_deliver) on_deliver(i);
                         });
      net.set_handler(ids[i], [this, i](const Message& m) {
        if (nodes[i].on_message(m)) return;
        received[i].push_back(m);
      });
    }
  }

  [[nodiscard]] bool is_member(std::size_t i) const {
    return std::ranges::find(members, ids[i]) != members.end();
  }

  /// Payload bytes node i received from node 0, sorted.
  [[nodiscard]] std::vector<std::uint8_t> from_sender(std::size_t i) const {
    std::vector<std::uint8_t> got;
    for (const Message& m : received[i]) {
      if (m.from != ids[0]) continue;
      EXPECT_EQ(m.kind, MsgKind::kTest);
      EXPECT_EQ(m.payload.size(), 1u);
      if (!m.payload.empty()) got.push_back(m.payload[0]);
    }
    std::ranges::sort(got);
    return got;
  }

  runtime::EventLoop queue;
  SimNetwork net;
  std::vector<NodeId> ids;
  std::vector<NodeId> members;
  std::unique_ptr<runtime::AtomicBroadcastGroup> group;
  std::deque<runtime::NodeContext> ctxs;
  std::deque<Delivery> nodes;
  std::vector<std::vector<Message>> received;
  /// Runs after each message a Delivery hands to node i's dispatch.
  std::function<void(std::size_t)> on_deliver;
};

class DeliveryTest : public ::testing::TestWithParam<Case> {};

TEST_P(DeliveryTest, CallsReachTheSameReceiversWithTheSamePayloads) {
  Mesh m(GetParam());
  m.nodes[0].send(m.ids[1], MsgKind::kTest, Bytes{1});
  const std::vector<NodeId> pair{m.ids[2], m.ids[3]};
  m.nodes[0].multicast(pair, MsgKind::kTest, Bytes{2});
  m.nodes[0].broadcast(MsgKind::kTest, Bytes{3});
  m.queue.run();

  const auto expect = [&](std::size_t i, std::vector<std::uint8_t> direct) {
    if (m.is_member(i)) direct.push_back(3);
    std::ranges::sort(direct);
    EXPECT_EQ(m.from_sender(i), direct) << "node " << i;
  };
  expect(0, {});
  expect(1, {1});
  expect(2, {2});
  expect(3, {2});
  EXPECT_EQ(m.nodes[0].reliable(), GetParam().reliable);
  EXPECT_EQ(m.nodes[0].channel() != nullptr, GetParam().reliable);
}

TEST_P(DeliveryTest, OwnBroadcastCopyArrivesExactlyOnce) {
  const Case c = GetParam();
  Mesh m(c);
  // How many channel sends had left when node 0 got its local copy.
  std::optional<std::uint64_t> sent_at_local;
  m.on_deliver = [&](std::size_t i) {
    if (i == 0 && m.nodes[0].channel() != nullptr) {
      sent_at_local = m.nodes[0].channel()->stats().data_sent;
    }
  };

  m.nodes[0].broadcast(MsgKind::kTest, Bytes{5});
  if (c.reliable && c.member) {
    // Synchronous, after one channel send per other member.
    ASSERT_EQ(m.received[0].size(), 1u);
    EXPECT_EQ(sent_at_local, m.members.size() - 1);
    EXPECT_EQ(m.received[0][0].from, m.ids[0]);
    EXPECT_EQ(m.received[0][0].seq, 0u);
  } else {
    EXPECT_TRUE(m.received[0].empty());
  }
  m.queue.run();

  ASSERT_EQ(m.from_sender(0).size(), c.member ? 1u : 0u);
  if (c.member && !c.reliable) {
    EXPECT_NE(m.received[0][0].seq, 0u);  // the group's sequenced copy
  }
  for (std::size_t i = 1; i < m.ids.size(); ++i) {
    EXPECT_EQ(m.from_sender(i).size(), m.is_member(i) ? 1u : 0u) << "node " << i;
  }
}

TEST_P(DeliveryTest, EnvelopesNeverReachTheNodesDispatch) {
  const Case c = GetParam();
  Mesh m(c);
  // An outside node whose channel wraps a message for node 1.
  const NodeId outsider = m.net.add_node();
  runtime::NodeContext ctx(outsider, m.net, Rng(9));
  runtime::ReliableChannel channel(ctx, /*epoch=*/0);
  m.net.set_handler(outsider, [&channel](const Message& msg) { channel.on_message(msg); });
  channel.send(m.ids[1], MsgKind::kTest, Bytes{9});
  m.nodes[0].send(m.ids[1], MsgKind::kTest, Bytes{4});
  m.queue.run();

  for (std::size_t i = 0; i < m.ids.size(); ++i) {
    for (const Message& msg : m.received[i]) {
      EXPECT_NE(msg.kind, MsgKind::kReliableData) << "node " << i;
      EXPECT_NE(msg.kind, MsgKind::kReliableAck) << "node " << i;
    }
  }
  // Reliable mode unwraps the outsider's envelope (and acks it); atomic
  // mode drops it unread.
  std::size_t from_outsider = 0;
  for (const Message& msg : m.received[1]) {
    if (msg.from == outsider) ++from_outsider;
  }
  EXPECT_EQ(from_outsider, c.reliable ? 1u : 0u);
  EXPECT_EQ(channel.stats().acks_received, c.reliable ? 1u : 0u);
  EXPECT_EQ(m.from_sender(1), (std::vector<std::uint8_t>{4}));
}

TEST_P(DeliveryTest, ReconnectRefreshesInFlightBudgetsOnlyWhenReliable) {
  const Case c = GetParam();
  Mesh m(c);
  m.net.set_drop_probability(m.ids[0], m.ids[1], 1.0);
  m.nodes[0].send(m.ids[1], MsgKind::kTest, Bytes{6});
  // Base RTO = 3 * Delta = 30 ms: one retransmission has been burned.
  m.queue.run_until(40 * kMillisecond);
  const std::uint64_t sent_before = m.net.stats().messages_sent;
  m.nodes[0].on_peer_reconnect(m.ids[1]);

  if (c.reliable) {
    ASSERT_NE(m.nodes[0].channel(), nullptr);
    EXPECT_EQ(m.nodes[0].channel()->stats().reconnect_resets, 1u);
    EXPECT_EQ(m.net.stats().messages_sent, sent_before + 1);  // immediate resend
  } else {
    EXPECT_EQ(m.nodes[0].channel(), nullptr);
    EXPECT_EQ(m.net.stats().messages_sent, sent_before);
  }
  m.net.set_drop_probability(m.ids[0], m.ids[1], 0.0);
  m.queue.run();
  // Only the channel recovers the lost send.
  EXPECT_EQ(m.from_sender(1).size(), c.reliable ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DeliveryTest,
    ::testing::Values(Case{"AtomicMember", false, true},
                      Case{"AtomicNonMember", false, false},
                      Case{"ReliableMember", true, true},
                      Case{"ReliableNonMember", true, false}),
    [](const ::testing::TestParamInfo<Case>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace repchain::net
