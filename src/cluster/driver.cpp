#include "cluster/driver.hpp"

#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "sim/harness/spec_codec.hpp"

namespace repchain::cluster {
namespace {

[[noreturn]] void refuse(std::size_t i, const std::string& what) {
  throw wire::WireError(wire::ProtocolError::kBadPayload,
                        "node " + std::to_string(i) + ": " + what);
}

}  // namespace

wire::Welcome driver_welcome(const crypto::Hash256& genesis) {
  wire::Welcome w;
  w.genesis = genesis;
  w.role = wire::Role::kDriver;
  return w;
}

RemoteGovernors::RemoteGovernors(std::vector<std::unique_ptr<SyncConn>> conns)
    : conns_(std::move(conns)) {}

RemoteGovernors::~RemoteGovernors() = default;

void RemoteGovernors::bind(sim::Wiring& wiring) {
  sim::require_cluster_runnable(wiring.config_);
  if (!wiring.config_.crashes.empty()) {
    throw ConfigError("lockstep cluster cannot run a crash schedule (crash "
                      "plans run on the free-running cluster)");
  }
  const std::size_t governors = wiring.config_.topology.governors;
  if (conns_.size() != governors) {
    throw ConfigError("cluster driver: " + std::to_string(conns_.size()) +
                      " node connections for " + std::to_string(governors) +
                      " governors");
  }
  wiring_ = &wiring;
  chains_.resize(governors);
  // Forward every ground-truth registration to the replica oracles. The
  // frames are fire-and-forget; the per-connection FIFO puts them ahead of
  // any later delivery that could validate the transaction.
  wiring.oracle_->set_register_hook([this](const ledger::TxId& id, bool valid) {
    const Bytes payload = encode_register_tx({id, valid});
    for (auto& conn : conns_) {
      conn->send_frame(static_cast<std::uint16_t>(ClusterPacket::kRegisterTx),
                       payload);
    }
  });
}

Bytes RemoteGovernors::rpc(std::size_t i, ClusterPacket request, BytesView payload,
                           ClusterPacket reply_type) {
  SyncConn& conn = *conns_[i];
  conn.send_frame(static_cast<std::uint16_t>(request), payload);
  const wire::Frame reply = conn.recv_frame();
  if (reply.type == static_cast<std::uint16_t>(wire::PacketType::kError)) {
    const wire::ErrorPacket err = wire::decode_error(reply.payload);
    throw wire::WireError(err.code,
                          "node " + std::to_string(i) + " failed: " + err.detail);
  }
  if (reply.type != static_cast<std::uint16_t>(reply_type)) {
    throw wire::WireError(wire::ProtocolError::kUnexpectedPacket,
                          "node " + std::to_string(i) + ": unexpected reply type " +
                              std::to_string(reply.type));
  }
  return reply.payload;
}

void RemoteGovernors::execute(std::size_t i, ClusterPacket request,
                              BytesView payload) {
  std::vector<Effect> effects =
      decode_effects(rpc(i, request, payload, ClusterPacket::kDone));
  runtime::NodeContext& ctx = wiring_->governor_ctxs_[i];
  for (const Effect& e : effects) {  // kinds up to kBroadcast send as `from`
    if (e.kind <= Effect::Kind::kBroadcast && e.from != ctx.node()) {
      refuse(i, "effect sent as node " + std::to_string(e.from.value()));
    }
  }
  runtime::Broadcaster& committee =
      *wiring_->shard_groups_[wiring_->shard_of(GovernorId(static_cast<std::uint32_t>(i)))
                                  .value()];
  for (Effect& e : effects) {
    switch (e.kind) {
      case Effect::Kind::kSend:
        ctx.transport().send(e.from, e.to.front(), e.msg_kind, std::move(e.payload));
        break;
      case Effect::Kind::kMulticast:
        ctx.transport().multicast(e.from, e.to, e.msg_kind, e.payload);
        break;
      case Effect::Kind::kBroadcast:
        committee.broadcast(e.from, e.msg_kind, e.payload);
        break;
      case Effect::Kind::kArmTimer:
        ctx.timers().schedule_at(e.at, [this, i, id = e.timer_id] {
          execute(i, ClusterPacket::kFireTimer, encode_fire_timer(now(), id));
        });
        break;
      case Effect::Kind::kTrace:
        ctx.emit(e.trace);
        break;
    }
  }
}

void RemoteGovernors::deliver(std::size_t i, const runtime::Message& msg) {
  execute(i, ClusterPacket::kDeliver, encode_deliver(now(), msg));
}

void RemoteGovernors::arm_round(std::size_t i, Round round, SimTime t0) {
  execute(i, ClusterPacket::kArmRound, encode_arm_round({now(), round, t0}));
}

void RemoteGovernors::reveal(std::size_t i, const ledger::TxId& id) {
  execute(i, ClusterPacket::kReveal, encode_reveal(now(), id));
}

std::optional<sim::GovernorState> RemoteGovernors::state(std::size_t i) {
  sim::GovernorState s =
      decode_state(rpc(i, ClusterPacket::kQueryState, {}, ClusterPacket::kState));
  if (s.leader && s.leader->value() >= conns_.size()) {
    refuse(i, "leader " + std::to_string(s.leader->value()) + " of " +
                  std::to_string(conns_.size()) + " governors");
  }
  const std::size_t collectors = wiring_->config_.topology.collectors;
  for (const auto& [c, share] : s.shares) {
    if (c.value() >= collectors) {
      refuse(i, "revenue share for collector " + std::to_string(c.value()) + " of " +
                    std::to_string(collectors));
    }
  }
  return s;
}

const ledger::ChainStore* RemoteGovernors::snapshot(std::size_t i) {
  ledger::ChainStore& chain = chains_[i] = ledger::ChainStore{};
  for (ledger::Block& b : decode_snapshot(
           rpc(i, ClusterPacket::kSnapshot, {}, ClusterPacket::kSnapshotData))) {
    chain.append(std::move(b));
  }
  return &chain;
}

void RemoteGovernors::shutdown() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    (void)rpc(i, ClusterPacket::kShutdown, {}, ClusterPacket::kDone);
  }
}

}  // namespace repchain::cluster
