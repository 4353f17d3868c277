#pragma once

// Observer side of the free-running cluster. In lockstep mode the driver
// owns the master event loop and every nondeterministic decision; here the
// governors own their clocks (FreeNodeHost, real CLOCK_MONOTONIC rounds,
// peer-to-peer TcpTransport mesh) and the driver degrades to a supervisor:
// it hosts the providers and collectors on its own PollLoop, injects the
// workload on the shared round cadence, executes the spec's crash schedule
// (ScenarioConfig::crashes, the plans the simulator runs), and reads every
// node through lockstep's kQueryState/kSnapshot. Byte-identical replay is
// impossible off the simulator's total order, so the acceptance check
// becomes a statistical convergence contract:
//
//   1. every node's head serial is monotone across polls,
//   2. no two nodes ever hold different blocks at one serial (common prefix
//      — no fork): heads are compared every round, whole chains at the end,
//   3. after the configured rounds (plus bounded grace) all nodes report
//      an identical non-empty head,
//   4. the committed transaction total lands within a tolerance band of
//      the in-process, crash-free simulation of the same config.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/local_cluster.hpp"
#include "cluster/packets.hpp"
#include "cluster/sync_conn.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/collector.hpp"
#include "protocol/provider.hpp"
#include "runtime/atomic_broadcast.hpp"
#include "runtime/node_context.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/tcp_transport.hpp"
#include "sim/harness/observation.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/system_model.hpp"

namespace repchain::cluster {

/// Reliable-mode election quorum: close_election() requires a strict
/// majority of the (non-expelled) committee, counted against committee size
/// — not live count — so dead governors subtract from the margin.
[[nodiscard]] constexpr std::size_t election_quorum(std::size_t governors) {
  return governors / 2 + 1;
}

/// Parse one `v@k:r` crash-plan spec (governor, crash round, restart round;
/// the offset is left to with_kills). Returns false on malformed input.
[[nodiscard]] bool parse_crash_plan(const std::string& spec, sim::CrashPlan& plan);

/// Fewest governors alive in any round of [1, rounds] under `plans` (a
/// victim counts dead from its crash round until the round before its
/// restart). Compare against election_quorum() to predict a stall window.
[[nodiscard]] std::size_t min_live_governors(
    const std::vector<sim::CrashPlan>& plans, std::size_t governors, Round rounds);

/// How a supervised run degraded while victims were down: whether the live
/// committee ever dropped below election quorum, the watchdog activity the
/// survivors surfaced (kRoundStalled traces and their time span), and how
/// many rounds the cluster needed after the last respawn to converge.
struct DegradationReport {
  bool quorum_lost = false;       // live committee < election_quorum at some point
  std::size_t min_live = 0;       // fewest live governors observed
  std::uint64_t stalled_events = 0;  // watchdog trips (kRoundStalled traces)
  SimTime stall_first = 0;        // clock of the first stall observation (0 = none)
  SimTime stall_last = 0;         // clock of the last stall observation
  Round last_restart_round = 0;   // round of the final respawn
  Round rounds_to_recover = 0;    // converged_round - last_restart_round
  std::uint32_t spontaneous_exits = 0;  // LocalCluster::spontaneous_exits()
};

/// Derive the free-running variant of a golden scenario config. The lockstep
/// goldens themselves stay untouched: free mode copies the config and flips
/// what the mode requires — reliable delivery (no cross-process sequencer),
/// a live watchdog (stall detection is the degradation story), and no audit
/// reveals (they would need mid-round reveal RPCs on the self-driving
/// schedule). Both the observer and every node process run the same derived
/// config, so the config-genesis admission check still binds them.
[[nodiscard]] sim::ScenarioConfig free_run_config(sim::ScenarioConfig base);

/// Normalize a free-run config; throws ConfigError unless it is
/// cluster-runnable with reliable delivery. Nodes and observer both apply it.
[[nodiscard]] sim::ScenarioConfig free_run_normalized(sim::ScenarioConfig config);

/// `config` with `kills` as its crash schedule, each victim SIGKILLed as its
/// crash round's collecting phase opens: every plan's crash_offset becomes
/// the run's RoundTiming::workload_offset, derived by sim::round_timing from
/// the normalized config, as SystemModel::build derives it.
[[nodiscard]] sim::ScenarioConfig with_kills(sim::ScenarioConfig config,
                                             std::vector<sim::CrashPlan> kills);

/// Peer-mesh transport options shared by free-run nodes and the observer.
[[nodiscard]] runtime::TcpTransport::Options free_run_mesh_options(
    const sim::ScenarioConfig& config);

/// Outcome of a free-running run, judged by the statistical contract.
struct FreeRunReport {
  bool converged = false;       // identical non-empty heads, all alive
  bool monotone_ok = true;      // no node's serial ever decreased
  bool prefix_ok = true;        // no two nodes hold different blocks at one serial
  bool txs_in_tolerance = false;
  Round rounds_run = 0;
  Round converged_round = 0;
  std::uint64_t head_serial = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t reference_txs = 0;  // simulated committed total (same config)
  std::uint64_t tolerance_lo = 0;   // accepted band around the scaled reference
  std::uint64_t tolerance_hi = 0;
  std::string head_hash_hex;
  SimTime killed_at = 0;    // observer clock of the first SIGKILL
  SimTime rejoined_at = 0;  // observer clock of the last completed respawn
  std::uint32_t restart_attempts = 0;
  DegradationReport degradation;
  sim::GovernorStates node_states;  // final poll per node (nullopt = dead)

  [[nodiscard]] bool ok() const {
    return converged && monotone_ok && prefix_ok && txs_in_tolerance;
  }
};

/// One free-running cluster run over the nodes of `cluster`, launched with
/// a peer base against the same derived config.
class FreeRunDriver {
 public:
  /// The crash schedule is `config.crashes`: a victim is SIGKILLed at its
  /// crash round's t0 + crash_offset and respawned from its persisted state
  /// at the start of its restart round. `grace_rounds` extra full rounds,
  /// workload included, are granted past the configured count for heads to
  /// agree after faults.
  FreeRunDriver(sim::ScenarioConfig config, LocalCluster& cluster,
                Round grace_rounds);
  ~FreeRunDriver();

  FreeRunDriver(const FreeRunDriver&) = delete;
  FreeRunDriver& operator=(const FreeRunDriver&) = delete;

  /// Run the configured rounds (plus grace), enforce the statistical
  /// contract, shut the nodes down and reap them, and report.
  [[nodiscard]] FreeRunReport run();

 private:
  void start_nodes();
  void run_round();
  void inject_workload(Round round);
  void kill_victim(std::size_t victim);
  void respawn_victim(std::size_t victim);
  void end_round_checks();
  /// One kSnapshot per live node: every pair must share a prefix, and the
  /// converged head's committed-tx count is read off the chain.
  void end_of_run_chain_checks();
  void mark_dead(std::size_t index);
  void note_liveness();
  [[nodiscard]] std::size_t live_count() const;
  /// Forward ground-truth registrations (encoded RegisterTx payloads) to
  /// node `index` and wait for its kDone per frame; marks the node dead on
  /// error.
  void register_truths(std::size_t index, const std::vector<Bytes>& truths);
  /// Blocking control RPC; marks the node dead (returns nullopt) on error.
  [[nodiscard]] std::optional<Bytes> try_query(std::size_t index,
                                               ClusterPacket request,
                                               BytesView payload,
                                               ClusterPacket reply);
  void shutdown_nodes();

  sim::ScenarioConfig config_;
  LocalCluster& cluster_;
  Round grace_rounds_;
  Rng rng_;
  sim::SystemModel model_;
  runtime::PollLoop loop_;
  runtime::TcpTransport transport_;
  runtime::AtomicBroadcastGroup upload_group_;
  ledger::ValidationOracle oracle_;
  std::deque<runtime::NodeContext> provider_ctxs_;
  std::deque<protocol::Provider> providers_;
  std::deque<runtime::NodeContext> collector_ctxs_;
  std::deque<protocol::Collector> collectors_;

  std::vector<std::unique_ptr<SyncConn>> conns_;
  std::vector<bool> alive_;
  std::vector<std::uint32_t> incarnations_;

  Round round_ = 0;
  SimTime round_start_ = 0;  // observer-clock t0 of the current round
  std::vector<std::uint64_t> last_serial_;       // monotonicity per node
  std::unordered_map<std::uint64_t, crypto::Hash256> seen_hashes_;  // by serial
  std::uint64_t last_max_serial_ = 0;  // driver-observed stall detection
  FreeRunReport report_;
};

}  // namespace repchain::cluster
