#include "cluster/node_host.hpp"

#include <string>
#include <utility>

#include "common/errors.hpp"
#include "sim/harness/spec_codec.hpp"
#include "wire/codec.hpp"

namespace repchain::cluster {
namespace {

sim::ScenarioConfig normalized(sim::ScenarioConfig config) {
  sim::normalize_config(config);
  sim::require_cluster_runnable(config);
  return config;
}

}  // namespace

void RemoteTimers::fire(std::uint64_t id) {
  auto it = armed_.find(id);
  if (it == armed_.end()) {
    throw NetError("cluster node: fire for unknown timer " + std::to_string(id) +
                   " (driver/node schedules diverged)");
  }
  Callback cb = std::move(it->second);
  armed_.erase(it);
  cb();
}

void RemoteTransport::send(NodeId from, NodeId to, runtime::MsgKind kind,
                           Bytes payload) {
  Effect e;
  e.kind = Effect::Kind::kSend;
  e.from = from;
  e.msg_kind = kind;
  e.payload = std::move(payload);
  e.to = {to};
  effects_.push_back(std::move(e));
}

void RemoteTransport::multicast(NodeId from, std::span<const NodeId> to,
                                runtime::MsgKind kind, const Bytes& payload) {
  Effect e;
  e.kind = Effect::Kind::kMulticast;
  e.from = from;
  e.msg_kind = kind;
  e.payload = payload;
  e.to.assign(to.begin(), to.end());
  effects_.push_back(std::move(e));
}

SimDuration RemoteTransport::draw_delay() {
  // Link delays are drawn from the driver's network RNG when the effect is
  // replayed; a draw here would fork the stream.
  throw NetError("cluster node: draw_delay called on the remote transport");
}

void RemoteTransport::deliver_direct(const runtime::Message&) {
  // Pre-ordered deliveries originate from the driver-side sequencer and
  // arrive as kDeliver requests; nothing node-side may shortcut them.
  throw NetError("cluster node: deliver_direct called on the remote transport");
}

void RemoteTransport::count_broadcast(runtime::MsgKind, std::size_t, std::size_t) {
  // Broadcast accounting lives with the driver's SimNetwork.
}

void RemoteBroadcaster::broadcast(NodeId from, runtime::MsgKind kind,
                                  const Bytes& payload) {
  Effect e;
  e.kind = Effect::Kind::kBroadcast;
  e.from = from;
  e.msg_kind = kind;
  e.payload = payload;
  effects_.push_back(std::move(e));
}

void RemoteTraceSink::on_event(const runtime::TraceEvent& ev) {
  Effect e;
  e.kind = Effect::Kind::kTrace;
  e.trace = ev;
  effects_.push_back(std::move(e));
}

NodeHost::NodeHost(sim::ScenarioConfig config, std::size_t governor_index)
    : config_(normalized(std::move(config))),
      index_(checked_governor_index(governor_index, config_.topology.governors)),
      genesis_(sim::config_genesis(config_)),
      model_(sim::SystemModel::build(config_, Rng(config_.seed))),
      timers_(effects_),
      transport_(effects_, timers_, config_.latency.max_delay),
      broadcaster_(effects_, model_.directory.governor_nodes()),
      trace_(effects_),
      oracle_(config_.validation_cost),
      ctx_(model_.directory.node_of(GovernorId(static_cast<std::uint32_t>(index_))),
           transport_, Rng(config_.seed).derive(sim::salt::governor(index_)),
           &trace_) {
  governor_ = std::make_unique<protocol::Governor>(
      GovernorId(static_cast<std::uint32_t>(index_)), ctx_,
      model_.governor_keys[index_], *model_.im, oracle_, model_.directory,
      broadcaster_, config_.governor, model_.genesis,
      model_.governor_visible[index_]);
}

NodeHost::~NodeHost() = default;

void NodeHost::reply_done(SyncConn& conn) {
  conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kDone),
                  encode_effects(effects_));
  effects_.clear();
}

void NodeHost::handle(SyncConn& conn, const wire::Frame& frame, bool& done) {
  switch (static_cast<ClusterPacket>(frame.type)) {
    case ClusterPacket::kRegisterTx: {
      const RegisterTx reg = decode_register_tx(frame.payload);
      oracle_.register_tx(reg.id, reg.valid);
      return;  // fire-and-forget
    }
    case ClusterPacket::kDeliver: {
      auto [now, msg] = decode_deliver(frame.payload);
      timers_.set_now(now);
      governor_->on_message(msg);
      reply_done(conn);
      return;
    }
    case ClusterPacket::kFireTimer: {
      const auto [now, id] = decode_fire_timer(frame.payload);
      timers_.set_now(now);
      timers_.fire(id);
      reply_done(conn);
      return;
    }
    case ClusterPacket::kArmRound: {
      const ArmRound a = decode_arm_round(frame.payload);
      timers_.set_now(a.now);
      governor_->arm_round(a.round, a.t0, model_.timing);
      reply_done(conn);
      return;
    }
    case ClusterPacket::kReveal: {
      const auto [now, id] = decode_reveal(frame.payload);
      timers_.set_now(now);
      (void)governor_->reveal_unchecked(id);
      reply_done(conn);
      return;
    }
    case ClusterPacket::kQueryState:
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kState),
                      encode_state(sim::read_governor_state(*governor_,
                                                            oracle_.validations())));
      return;
    case ClusterPacket::kSnapshot:
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kSnapshotData),
                      encode_snapshot(governor_->chain().blocks()));
      return;
    case ClusterPacket::kShutdown:
      reply_done(conn);
      done = true;
      return;
    default:
      throw wire::WireError(wire::ProtocolError::kUnknownPacket,
                            "cluster node: packet type " +
                                std::to_string(frame.type));
  }
}

void NodeHost::serve(int fd) {
  SyncConn conn(fd);
  accept_driver(conn, genesis_, index_, governor_->node(), /*incarnation=*/0,
                /*head_serial=*/0);

  bool done = false;
  while (!done) {
    wire::Frame frame;
    try {
      frame = conn.recv_frame();
    } catch (const NetError&) {
      return;  // driver went away: nothing left to serve
    }
    try {
      handle(conn, frame, done);
    } catch (const wire::WireError& e) {
      conn.send_error(e.code(), e.what());
      throw;
    }
  }
}

}  // namespace repchain::cluster
