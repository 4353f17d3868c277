#pragma once

// Harness layer: node construction and plumbing. Wiring owns every live
// object of a run — network, identities, oracle, runtime contexts, the node
// objects themselves, and the rebuild material (keys, genesis stake,
// visibility views, durable stores) that lets a crashed governor be
// reconstructed in place. Members are public: this is internal machinery the
// Scenario facade encapsulates; FaultPlan and Workload reach in by design.

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/validation_oracle.hpp"
#include "net/network.hpp"
#include "protocol/collector.hpp"
#include "protocol/governor.hpp"
#include "protocol/provider.hpp"
#include "protocol/round_timing.hpp"
#include "runtime/atomic_broadcast.hpp"
#include "runtime/fault_schedule.hpp"
#include "runtime/node_context.hpp"
#include "sim/harness/observation.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/system_model.hpp"
#include "sim/topology.hpp"
#include "storage/node_state_store.hpp"

namespace repchain::sim {

class RoundObserver;
struct Wiring;

/// The one seam through which the round loop reaches governor i. Wiring
/// installs the in-process implementation over its governor slots; a
/// lockstep cluster run passes one that forwards each operation to the
/// node process hosting governor i. Either way the loop itself — round
/// order, audit draws, anchor cadence — is Scenario's alone.
class GovernorLink {
 public:
  GovernorLink() = default;
  GovernorLink(const GovernorLink&) = delete;
  GovernorLink& operator=(const GovernorLink&) = delete;
  virtual ~GovernorLink() = default;
  /// Called once, at the end of Wiring's constructor, before any operation.
  virtual void bind(Wiring& wiring) = 0;
  /// A network delivery addressed to governor i.
  virtual void deliver(std::size_t i, const runtime::Message& msg) = 0;
  /// Arm governor i's phase timers for `round`, starting at `t0`.
  virtual void arm_round(std::size_t i, Round round, SimTime t0) = 0;
  /// Governor i's state; nullopt while it is dead.
  [[nodiscard]] virtual std::optional<GovernorState> state(std::size_t i) = 0;
  /// Audit: surface an unrevealed unchecked transaction's truth.
  virtual void reveal(std::size_t i, const ledger::TxId& id) = 0;
  /// Governor i's chain for the end-of-run summary (null while it is dead),
  /// valid until the next snapshot of i.
  [[nodiscard]] virtual const ledger::ChainStore* snapshot(std::size_t i) = 0;
};

/// Builds the whole system — identity manager, simulated network, per-node
/// runtime contexts, atomic broadcast groups, providers/collectors/governors
/// — and wires it per the topology. The constructor performs the full
/// deterministic build sequence (RNG stream derivation order is part of the
/// pinned-seed contract); afterwards Wiring is the registry the rest of the
/// harness works against, plus the governor crash/restart lifecycle.
struct Wiring {
  /// `config` must already be normalized (validated, implied flags applied)
  /// and must outlive the Wiring; governor rebuilds re-read it. With a
  /// non-null `remote` (which must outlive the Wiring), governor slots stay
  /// empty and every governor operation goes through that link
  /// (multi-process cluster runs).
  Wiring(ScenarioConfig& config, const Rng& rng, runtime::EventLoop& queue,
         RoundObserver& observer, GovernorLink* remote = nullptr);
  ~Wiring();

  Wiring(const Wiring&) = delete;
  Wiring& operator=(const Wiring&) = delete;

  /// (Re)construct governor i in its slot from the retained rebuild material.
  void make_governor(std::size_t i);
  /// Kill governor `i` right now: revoke its pending timer callbacks and
  /// destroy the object (all in-memory state is gone; its NodeStateStore,
  /// held here, survives). Messages to the dead node are dropped.
  void crash_governor(std::size_t i);
  /// Rebuild governor `i` from its store and start catching up with peers.
  void restart_governor(std::size_t i);
  /// Every governor's state, read through the link.
  [[nodiscard]] GovernorStates governor_states();

  /// Absolute start time of 1-based round `r`.
  [[nodiscard]] SimTime round_start(std::size_t r) const {
    return static_cast<SimTime>(r - 1) * timing_.round_span;
  }

  /// Committee of a member id (shard 0 on classic runs).
  [[nodiscard]] ShardId shard_of(ProviderId id) const { return router_.shard_of(id); }
  [[nodiscard]] ShardId shard_of(CollectorId id) const { return router_.shard_of(id); }
  [[nodiscard]] ShardId shard_of(GovernorId id) const { return router_.shard_of(id); }

  ScenarioConfig& config_;
  Rng rng_;
  std::unique_ptr<net::SimNetwork> net_;
  std::unique_ptr<runtime::FaultyTransport> faulty_;
  runtime::Transport* transport_ = nullptr;  // faulty_ if faults, else net_
  std::unique_ptr<identity::IdentityManager> im_;
  std::unique_ptr<ledger::ValidationOracle> oracle_;
  protocol::Directory directory_;
  // Committee partition: the router plus per-shard directories / genesis /
  // broadcast groups. One shard on classic runs, where shard 0's structures
  // are content-identical to the global ones.
  protocol::ShardRouter router_;
  std::vector<protocol::Directory> shard_directories_;
  std::vector<protocol::StakeLedger> shard_genesis_;
  std::vector<std::unique_ptr<runtime::AtomicBroadcastGroup>> shard_groups_;
  protocol::RoundTiming timing_;

  // deques: node objects must never relocate (handlers, contexts and the
  // governors' internal references are address-stable).
  std::deque<runtime::NodeContext> provider_ctxs_;
  std::deque<runtime::NodeContext> collector_ctxs_;
  std::deque<runtime::NodeContext> governor_ctxs_;
  std::deque<protocol::Provider> providers_;
  std::deque<protocol::Collector> collectors_;
  std::deque<std::unique_ptr<protocol::Governor>> governors_;

  // Rebuild material for crashed governors: their signing keys, genesis
  // stake, partial-visibility views, and (outliving the governor objects)
  // their durable stores.
  std::vector<crypto::SigningKey> governor_keys_;
  protocol::StakeLedger genesis_;
  std::vector<std::vector<CollectorId>> governor_visible_;
  std::deque<std::unique_ptr<storage::NodeStateStore>> governor_stores_;
  // ReliableChannel incarnation per governor, bumped on every restart so the
  // new life's sequence space is distinct from the old one.
  std::vector<std::uint32_t> governor_epochs_;
  // Current adversary toggles per governor (re-applied by make_governor so a
  // Byzantine governor stays Byzantine across a crash/restart) and the
  // collectors' baseline behaviors (restored when a Byzantine window ends).
  std::vector<adversary::GovernorByzantine> governor_byz_;
  std::vector<protocol::CollectorBehavior> collector_baselines_;
  // The governor seam: `local_` over the slots above, or the remote link.
  std::unique_ptr<GovernorLink> local_;
  GovernorLink* link_ = nullptr;
};

}  // namespace repchain::sim
