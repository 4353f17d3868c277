#pragma once

// Driver side of the lockstep cluster: sim::Scenario's own round loop, with
// RemoteGovernors as its GovernorLink. The driver keeps the master event
// loop, the simulated network (delay RNG and traffic accounting), the atomic
// broadcast sequencer, the ground-truth oracle and every provider/collector;
// only the governors live in node processes. Each operation on governor i
// is a synchronous RPC: the node runs the handler and ships back the ordered
// Effect list, which the driver replays through governor i's driver-side
// NodeContext. Every nondeterministic choice is made once, in the driver, in
// the order the in-process simulation makes it, so the two runs' summaries
// are byte-identical. A reply naming a leader or share collector past its
// topology count, or an effect sent as another node, fails the run with
// WireError(kBadPayload); so does any failed RPC (lockstep has no fault
// story — crash schedules belong to the free-running cluster, free_run.hpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/packets.hpp"
#include "cluster/sync_conn.hpp"
#include "ledger/chain.hpp"
#include "sim/harness/wiring.hpp"
#include "wire/codec.hpp"

namespace repchain::cluster {

/// The welcome the driver presents on every node connection.
[[nodiscard]] wire::Welcome driver_welcome(const crypto::Hash256& genesis);

/// sim::GovernorLink over RPC. `conns[i]` must be the (already handshaken)
/// connection to the process hosting governor i. The lockstep run is
/// sim::simulate_run(config, &link) followed by shutdown().
class RemoteGovernors final : public sim::GovernorLink {
 public:
  explicit RemoteGovernors(std::vector<std::unique_ptr<SyncConn>> conns);
  ~RemoteGovernors() override;

  /// Throws ConfigError unless the run is cluster-runnable, schedules no
  /// crash and has one connection per governor; forwards ground truth to the
  /// nodes from here on.
  void bind(sim::Wiring& wiring) override;
  void deliver(std::size_t i, const runtime::Message& msg) override;
  void arm_round(std::size_t i, Round round, SimTime t0) override;
  [[nodiscard]] std::optional<sim::GovernorState> state(std::size_t i) override;
  void reveal(std::size_t i, const ledger::TxId& id) override;
  /// The chain is rebuilt through append(), which re-validates serials and
  /// hash links, so a node cannot ship a corrupt chain unnoticed.
  [[nodiscard]] const ledger::ChainStore* snapshot(std::size_t i) override;

  /// Ask every node to exit.
  void shutdown();

 private:
  /// One synchronous request; returns the payload of the expected `reply`
  /// and throws WireError on a kError or any other reply type.
  [[nodiscard]] Bytes rpc(std::size_t i, ClusterPacket request, BytesView payload,
                          ClusterPacket reply);
  /// A request answered by kDone: check the recorded effects, then replay
  /// them in order.
  void execute(std::size_t i, ClusterPacket request, BytesView payload);
  [[nodiscard]] SimTime now() const { return wiring_->transport_->timers().now(); }

  std::vector<std::unique_ptr<SyncConn>> conns_;
  sim::Wiring* wiring_ = nullptr;
  std::vector<ledger::ChainStore> chains_;  // the latest snapshot per governor
};

}  // namespace repchain::cluster
