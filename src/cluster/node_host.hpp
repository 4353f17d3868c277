#pragma once

// One governor process. A NodeHost is handed only (normalized config,
// governor index): it rebuilds the deterministic SystemModel a driver-side
// Wiring would have built from the same inputs, constructs its one Governor
// on top of Remote* runtime shims, and serves the driver's RPC loop. The
// shims never act on their own — every externally-visible action the
// governor takes (send, multicast, atomic broadcast, timer arm, trace
// event) is recorded as an Effect in program order and shipped back in the
// kDone reply, and the node's virtual clock only advances when a request
// carries a new timestamp. The process has no independent time source and
// no direct peer links: determinism is inherited from the driver's master
// event loop rather than re-established.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/packets.hpp"
#include "cluster/sync_conn.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/governor.hpp"
#include "runtime/broadcaster.hpp"
#include "runtime/node_context.hpp"
#include "runtime/timer.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/system_model.hpp"

namespace repchain::cluster {

/// TimerService whose clock is set from request frames and whose arms
/// become effects. Firing is driven by the driver: the master loop runs the
/// schedule, the node only keeps the callbacks.
class RemoteTimers final : public runtime::TimerService {
 public:
  explicit RemoteTimers(std::vector<Effect>& effects) : effects_(effects) {}

  [[nodiscard]] SimTime now() const override { return now_; }

  void schedule_at(SimTime t, Callback cb) override {
    const std::uint64_t id = next_id_++;
    armed_.emplace(id, std::move(cb));
    Effect e;
    e.kind = Effect::Kind::kArmTimer;
    e.at = t;
    e.timer_id = id;
    effects_.push_back(std::move(e));
  }

  void set_now(SimTime t) { now_ = t; }

  /// Run (and forget) the callback armed under `id`. Throws NetError on an
  /// unknown id — the driver and node schedules have diverged.
  void fire(std::uint64_t id);

 private:
  std::vector<Effect>& effects_;
  SimTime now_ = 0;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Callback> armed_;
};

/// Transport shim: unicast/multicast become effects (the driver replays
/// them through its SimNetwork, which draws the link delays in the same
/// order a locally-hosted governor would have). The sequencer hooks are
/// driver-side by construction, so draw_delay and deliver_direct throw: a
/// call means governor code is doing something the lockstep replay cannot
/// keep deterministic, and failing loudly beats drifting silently.
class RemoteTransport final : public runtime::Transport {
 public:
  RemoteTransport(std::vector<Effect>& effects, RemoteTimers& timers,
                  SimDuration max_delay)
      : effects_(effects), timers_(timers), max_delay_(max_delay) {}

  void send(NodeId from, NodeId to, runtime::MsgKind kind, Bytes payload) override;
  void multicast(NodeId from, std::span<const NodeId> to, runtime::MsgKind kind,
                 const Bytes& payload) override;
  [[nodiscard]] SimDuration max_delay() const override { return max_delay_; }
  [[nodiscard]] runtime::TimerService& timers() override { return timers_; }
  [[nodiscard]] SimDuration draw_delay() override;
  void deliver_direct(const runtime::Message& msg) override;
  void count_broadcast(runtime::MsgKind kind, std::size_t copies,
                       std::size_t payload_bytes) override;

 private:
  std::vector<Effect>& effects_;
  RemoteTimers& timers_;
  SimDuration max_delay_;
};

/// Broadcaster shim standing in for the driver's AtomicBroadcastGroup: the
/// broadcast becomes an effect, sequencing happens where the sequencer is.
class RemoteBroadcaster final : public runtime::Broadcaster {
 public:
  RemoteBroadcaster(std::vector<Effect>& effects, std::vector<NodeId> members)
      : effects_(effects), members_(std::move(members)) {}

  void broadcast(NodeId from, runtime::MsgKind kind, const Bytes& payload) override;
  [[nodiscard]] const std::vector<NodeId>& members() const override {
    return members_;
  }

 private:
  std::vector<Effect>& effects_;
  std::vector<NodeId> members_;
};

/// Trace shim: events ride back as effects, the driver feeds them to its
/// RoundObserver, so watched-node accounting matches an in-process run.
class RemoteTraceSink final : public runtime::TraceSink {
 public:
  explicit RemoteTraceSink(std::vector<Effect>& effects) : effects_(effects) {}
  void on_event(const runtime::TraceEvent& ev) override;

 private:
  std::vector<Effect>& effects_;
};

/// Serve `frame` when it is one of the pure reads every node host answers:
/// kQueryState with `governor`'s sim::GovernorState (`validations` counts its
/// oracle replica) and kSnapshot with its chain. Returns false, sending
/// nothing, for any other request.
bool serve_read(SyncConn& conn, const wire::Frame& frame,
                const protocol::Governor& governor, std::uint64_t validations);

/// The governor process behind one driver connection. Stateless by design:
/// a lockstep node holds nothing the driver could not replay, so it has no
/// store, no incarnation and no resume path — crash/restart schedules run on
/// the free-running cluster (FreeNodeHost).
class NodeHost {
 public:
  /// `config` is normalized in place; throws ConfigError when it is not
  /// cluster-runnable or `governor_index` is out of range.
  NodeHost(sim::ScenarioConfig config, std::size_t governor_index);
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Handshake on `fd` (taking ownership) and serve requests until
  /// kShutdown or EOF. Protocol violations notify the driver with a kError
  /// packet and rethrow.
  void serve(int fd);

 private:
  void handle(SyncConn& conn, const wire::Frame& frame, bool& done);
  void reply_done(SyncConn& conn);

  sim::ScenarioConfig config_;
  std::size_t index_;
  crypto::Hash256 genesis_;
  sim::SystemModel model_;
  std::vector<Effect> effects_;
  RemoteTimers timers_;
  RemoteTransport transport_;
  RemoteBroadcaster broadcaster_;
  RemoteTraceSink trace_;
  ledger::ValidationOracle oracle_;
  runtime::NodeContext ctx_;
  std::unique_ptr<protocol::Governor> governor_;
};

}  // namespace repchain::cluster
