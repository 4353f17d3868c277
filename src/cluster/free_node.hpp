#pragma once

// One free-running governor process. Where NodeHost inherits determinism
// from the driver's master event loop (every timer fired by RPC, every send
// shipped back as an Effect), a FreeNodeHost owns its clock: the governor's
// round schedule is armed on a real PollLoop over CLOCK_MONOTONIC, and
// protocol messages travel peer-to-peer over a TcpTransport mesh with
// auto-reconnect. The driver degrades from conductor to observer — it
// announces the aligned start instant, injects workload, and polls the same
// kQueryState/kSnapshot reads a lockstep node serves, which back the
// statistical convergence contract.
//
// Free-running requires reliable delivery: there is no cross-process atomic
// broadcast sequencer, so the governor's runtime::Delivery must run on its
// ReliableChannel (order-tolerant receive paths, per-peer retransmit).
// The Broadcaster handed to the governor therefore throws on use — a call
// means a code path that cannot be correct off the simulator's total order.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/sync_conn.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/governor.hpp"
#include "runtime/broadcaster.hpp"
#include "runtime/node_context.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/trace.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/system_model.hpp"
#include "storage/node_state_store.hpp"

namespace repchain::cluster {

/// Broadcaster tripwire for reliable-mode-only hosts: the member list is
/// real (the protocol sizes quorums from it), but a broadcast() call throws
/// — nothing in a free-running process can provide the total order the
/// atomic-broadcast contract promises.
class NoBroadcaster final : public runtime::Broadcaster {
 public:
  explicit NoBroadcaster(std::vector<NodeId> members)
      : members_(std::move(members)) {}

  void broadcast(NodeId from, runtime::MsgKind kind, const Bytes& payload) override;
  [[nodiscard]] const std::vector<NodeId>& members() const override {
    return members_;
  }

 private:
  std::vector<NodeId> members_;
};

/// Trace sink mirroring stalled rounds and exhausted reliable deliveries to
/// stderr, so the per-node log files tell the degradation story.
class DegradationLog final : public runtime::TraceSink {
 public:
  void on_event(const runtime::TraceEvent& ev) override;
};

/// The governor process behind one free-running cluster node.
class FreeNodeHost {
 public:
  /// `config` is normalized in place; throws ConfigError when it is not
  /// cluster-runnable, not reliable-delivery, or `governor_index` is out of
  /// range. The peer mesh binds loopback port `peer_base + index` and dials
  /// `peer_base + j` for every j < index (higher-indexed peers and the
  /// driver dial us; auto-reconnect heals the mesh from both sides after a
  /// crash). `state_dir` (optional) attaches a FileStateStore so every
  /// commit is durable; `incarnation` > 0 marks a restarted process: it
  /// replays snapshot + WAL, announces session resume with the recovered
  /// chain head in its driver welcome, and runs its ReliableChannel under
  /// the incarnation epoch.
  FreeNodeHost(sim::ScenarioConfig config, std::size_t governor_index,
               std::uint16_t peer_base, const std::string& state_dir = "",
               std::uint32_t incarnation = 0);
  ~FreeNodeHost();

  FreeNodeHost(const FreeNodeHost&) = delete;
  FreeNodeHost& operator=(const FreeNodeHost&) = delete;

  /// Handshake on the control connection `fd` (taking ownership), then run
  /// the PollLoop — timers, peer sockets and control requests all on one
  /// thread — until kShutdown or control EOF. Protocol violations, a refused
  /// driver welcome included, notify the driver with a kError packet and
  /// rethrow.
  void run(int fd);

 private:
  void handle_control(SyncConn& conn, const wire::Frame& frame);
  /// Serve every control frame that has arrived, without blocking.
  void drain_control(SyncConn& conn);

  sim::ScenarioConfig config_;
  std::size_t index_;
  std::uint32_t incarnation_;
  crypto::Hash256 genesis_;
  sim::SystemModel model_;
  std::unique_ptr<storage::NodeStateStore> store_;
  runtime::PollLoop loop_;
  runtime::TcpTransport transport_;
  NoBroadcaster broadcaster_;
  DegradationLog log_;
  ledger::ValidationOracle oracle_;
  runtime::NodeContext ctx_;
  std::unique_ptr<protocol::Governor> governor_;

  bool done_ = false;
  // Mesh traffic held until the driver's kFreeStart. A respawned node's
  // listener is reachable the moment the transport binds, and survivors'
  // reliable channels immediately retransmit their backlog — reports and
  // argues naming transactions whose ground truth only arrives with the
  // driver's kRegisterTx replay on the control FIFO (always ahead of
  // kFreeStart). Delivering the backlog early would validate unregistered
  // transactions; parking it here keeps the channels retransmitting until
  // the oracle is complete.
  bool started_ = false;
  std::vector<runtime::Message> pre_start_;
};

}  // namespace repchain::cluster
