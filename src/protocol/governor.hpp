#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/evidence.hpp"
#include "crypto/ed25519.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/chain.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/argue_service.hpp"
#include "protocol/block_assembly.hpp"
#include "protocol/directory.hpp"
#include "protocol/equivocation_detector.hpp"
#include "protocol/governor_types.hpp"
#include "protocol/leader_election.hpp"
#include "protocol/messages.hpp"
#include "protocol/round_timing.hpp"
#include "protocol/screening.hpp"
#include "protocol/screening_intake.hpp"
#include "protocol/stake_consensus.hpp"
#include "runtime/broadcaster.hpp"
#include "runtime/delivery.hpp"
#include "runtime/node_context.hpp"
#include "storage/node_state_store.hpp"

namespace repchain::protocol {

/// A governor node (tier 3), composed from focused units:
///   - ScreeningIntake       upload auth + Delta-window report aggregation
///   - ScreeningEngine       Algorithm 2 decision core (+ Algorithm 3 case 2)
///   - ArgueService          unchecked/argue/reveal bookkeeping (case 3)
///   - BlockAssembler        TXList accumulation and block packing
///   - StakeConsensus        stake ledger + the 3-step consensus (§3.4.3)
///   - EquivocationDetector  label-gossip cross-checking extension (§4.2)
/// This class is the facade: message authentication, dispatch, leader
/// election, timer-driven round phases, and checkpointing.
///
/// The governor sees its host only through runtime::NodeContext (transport,
/// timers, rng, trace sink) — it runs unchanged under the simulator or any
/// other runtime.
class Governor {
 public:
  /// `visible_collectors` empty means the §3.1 default (a governor has
  /// connection with all collectors); otherwise the governor only perceives
  /// uploads from — and keeps reputation for — the listed collectors
  /// (partial-information deployments, §3.1: "the structure of the network
  /// can be adjusted").
  /// `store` (optional) attaches durable state: every committed block is
  /// WAL-appended and every stake-transform commit (plus every
  /// config.snapshot_interval blocks, if set) persists a checkpoint()
  /// snapshot and truncates the log. Construction does not read the store —
  /// call recover_from_store() to replay a previous incarnation's state.
  Governor(GovernorId id, runtime::NodeContext& ctx, crypto::SigningKey key,
           const identity::IdentityManager& im, ledger::ValidationOracle& oracle,
           const Directory& directory, runtime::Broadcaster& governor_group,
           GovernorConfig config, StakeLedger genesis_stake,
           std::vector<CollectorId> visible_collectors = {},
           storage::NodeStateStore* store = nullptr);

  // The screening engine holds references into this object; Governor is
  // pinned in memory (store it in a std::deque or behind a pointer).
  Governor(const Governor&) = delete;
  Governor& operator=(const Governor&) = delete;
  Governor(Governor&&) = delete;
  Governor& operator=(Governor&&) = delete;

  /// Network delivery entry point; dispatches on message kind.
  void on_message(const runtime::Message& msg);

  // --- Round driving --------------------------------------------------------
  //
  // Rounds are self-driving: arm_round schedules every phase deadline of one
  // round on the node's own timers (keyed to the synchrony bound Delta via
  // RoundTiming), so no external coordinator pokes the governor between
  // phases. The begin_round/propose_if_leader/... entry points remain public
  // for surgical tests that drive phases by hand.

  /// Schedule all phase deadlines of `round` starting at absolute time `t0`.
  void arm_round(Round round, SimTime t0, const RoundTiming& timing);

  /// Fully autonomous mode: arm `first` now and chain each following round
  /// after round_span, forever. Used where no harness exists at all.
  void drive_rounds(Round first, const RoundTiming& timing);

  /// Autonomous mode with an explicit start time: free-running cluster nodes
  /// align their local round boundaries to a driver-announced t0 (now or in
  /// the near future) so peers begin each round within network skew of each
  /// other rather than at whatever instant the process came up.
  void drive_rounds(Round first, SimTime t0, const RoundTiming& timing);

  /// Start round r: reset election state and broadcast own VRF tickets.
  void begin_round(Round round);

  /// True iff the election is complete and this governor won.
  [[nodiscard]] bool is_leader() const;
  [[nodiscard]] std::optional<GovernorId> round_leader() const;

  /// Leader packs up to block_limit pending records and broadcasts the block.
  /// No-op for non-leaders or before the election completes.
  void propose_if_leader();

  /// Leader runs the 3-step stake consensus over this round's stake
  /// transfers (no-op when there are none).
  void run_stake_consensus_if_leader();

  /// Queue a stake transfer (broadcast to all governors, §3.4.3).
  void submit_stake_transfer(GovernorId to, std::uint64_t amount);

  /// Equivocation-detection extension: broadcast the signed labels received
  /// since the last gossip so peers can cross-check against their own copies
  /// (no-op unless config.enable_label_gossip).
  void gossip_labels();

  /// Audit hook for the experiments: reveal the true state of an unchecked
  /// transaction through "other evidence" (not an argue; no block append).
  /// Triggers the Algorithm 3 case-3 update. Returns false if unknown or
  /// already revealed.
  bool reveal_unchecked(const ledger::TxId& id);

  /// Ids of unchecked transactions still unrevealed (oldest first).
  [[nodiscard]] std::vector<ledger::TxId> unrevealed_unchecked() const;

  /// For a byzantine-leader test: corrupt the stake state this leader
  /// proposes.
  void set_cheat_stake_consensus(bool cheat) { stake_consensus_.set_cheat(cheat); }

  /// Install (or clear) in-protocol Byzantine behaviors — the adversary
  /// layer's equivocating leader and lying sync peer. Scenario harnesses
  /// flip these per round window; all flags default to honest.
  void set_byzantine(adversary::GovernorByzantine byz) { byz_ = byz; }
  [[nodiscard]] const adversary::GovernorByzantine& byzantine() const { return byz_; }

  /// Checkpoint the governor's durable state — chain, reputation table,
  /// stake ledger, and the unchecked entries with their screening-time
  /// report snapshots (so case-3 updates survive a restore) — as one
  /// verifiable blob. Round transients (pending aggregations, election) are
  /// intentionally not persisted: a restarted governor rejoins at the next
  /// round boundary.
  [[nodiscard]] Bytes checkpoint() const;

  /// Restore a checkpoint produced by `checkpoint()` on a governor with the
  /// same identity/configuration. Throws DecodeError/ProtocolError on
  /// malformed, tampered or foreign-format input (including the retired v1
  /// layout) without touching the governor's state.
  void restore(BytesView data);

  // --- Durable state --------------------------------------------------------

  /// Rebuild state from the attached NodeStateStore: load the latest
  /// snapshot (if any), replay the WAL tail on top of it (skipping records
  /// the snapshot already covers), and re-audit the resulting chain. Throws
  /// ProtocolError if the audit fails; no-op without a store. Call before
  /// arming rounds on a restarted node, then sync_chain() to catch up with
  /// blocks committed while it was down.
  void recover_from_store();

  /// Catch up with peers: request blocks above the local head from the
  /// other governors (the provider light-client sync, reused node-to-node).
  /// No-op while a sync is already in flight or when there are no peers.
  void sync_chain();

  // --- Accessors ------------------------------------------------------------

  [[nodiscard]] GovernorId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const ledger::ChainStore& chain() const { return chain_; }
  [[nodiscard]] const reputation::ReputationTable& reputation() const { return table_; }
  [[nodiscard]] const ScreeningStats& screening_stats() const { return engine_.stats(); }
  [[nodiscard]] const GovernorMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const StakeLedger& stake() const { return stake_consensus_.stake(); }
  [[nodiscard]] const std::set<GovernorId>& expelled() const { return expelled_; }
  [[nodiscard]] std::size_t pending_txs() const { return assembler_.pending_count(); }
  [[nodiscard]] const ArgueBuffer& argue_buffer() const { return argues_.buffer(); }
  /// True iff this governor perceives `collector` (always true in the
  /// full-visibility default).
  [[nodiscard]] bool sees(CollectorId collector) const { return intake_.sees(collector); }
  /// Revenue shares from this governor's local reputation (§3.4.3); when this
  /// governor leads a round, these shares split the round's collector reward.
  [[nodiscard]] std::vector<std::pair<CollectorId, double>> revenue_shares() const {
    return table_.revenue_shares();
  }
  /// All unchecked entries (screening-time report snapshots + ground truth),
  /// for the loss/regret analyses of experiments E1/E4.
  [[nodiscard]] const std::unordered_map<ledger::TxId, UncheckedEntry,
                                         ledger::TxIdHash>&
  unchecked_entries() const {
    return argues_.entries();
  }
  /// The reliable channel, or nullptr when config.reliable_delivery is off.
  [[nodiscard]] const runtime::ReliableChannel* channel() const {
    return out_.channel();
  }
  /// Watchdog surfacing for free-running observers: the round the governor
  /// is currently in and how many consecutive rounds ended without a commit.
  [[nodiscard]] Round current_round() const { return round_; }
  [[nodiscard]] std::size_t stalled_rounds() const { return stalled_rounds_; }

  /// Transport reconnect notification: refresh the reliable channel's retry
  /// budget for `peer` (no-op in atomic mode). Wire this to
  /// TcpTransport::set_reconnect_hook on live deployments.
  void on_peer_reconnected(NodeId peer) { out_.on_peer_reconnect(peer); }

 private:
  void on_argue(const runtime::Message& msg);
  void on_vrf(const runtime::Message& msg);
  void on_block_proposal(const runtime::Message& msg);
  void on_stake_tx(const runtime::Message& msg);
  void on_state_proposal(const runtime::Message& msg);
  void on_state_signature(const runtime::Message& msg);
  void on_state_commit(const runtime::Message& msg);
  void on_expel(const runtime::Message& msg);
  void on_label_gossip(const runtime::Message& msg);
  void on_block_request(const runtime::Message& msg);
  void on_block_response(const runtime::Message& msg);

  void broadcast_expel(GovernorId accused, Bytes evidence);
  /// Re-share the held expulsion proof against `accused`, at most once per
  /// round, for replicas that lost their expelled set in a crash.
  void reshare_expulsion(GovernorId accused);
  void emit(runtime::TraceKind kind, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0);
  /// Emit a kByzantineEvidence trace (and count it in the metrics).
  void emit_byzantine(adversary::ByzantineKind kind, std::uint64_t offender);

  /// Reliable-mode degraded election closure (majority quorum) at propose
  /// time; no-op otherwise.
  void close_election();
  /// Emit kLeaderElected once per round, as soon as the election has a winner.
  void announce_leader();
  /// Winner check + stash-or-adopt for a proposal that cleared the
  /// byzantine-defense gate (or arrived with the defense off).
  void settle_proposal(ledger::Block block);
  /// A leader signed two conflicting blocks for one serial: reject, expel
  /// locally, and broadcast the self-contained evidence to peers.
  void handle_proposal_equivocation(const ledger::Block& prior,
                                    const ledger::Block& offending);
  /// Serial/link/authenticity checks + append for a proposal whose leader
  /// legitimacy has already been established.
  void adopt_proposal(ledger::Block block);
  /// Bookkeeping for the block just appended to the chain: count it, persist
  /// it, reconcile the pending records and emit kBlockCommitted.
  void commit_appended_head();
  /// Byzantine defense: record that `peer` served an invalid or outvoted
  /// sync response; distrusted peers are deprioritized in request_block.
  void note_lying_peer(NodeId peer);
  /// Re-evaluate proposals stashed while this round's winner was undecided
  /// (see pending_proposals_).
  void retry_pending_proposals();
  /// Liveness watchdog (config.watchdog_rounds): fires at each round end.
  void watchdog_check();
  [[nodiscard]] SimDuration sync_timeout() const;

  /// Ask a peer governor for block `serial` (round-robin over peers).
  void request_block(BlockSerial serial);
  /// Sync finished (caught up or failed): settle stashed future blocks.
  void finish_sync();
  /// Adopt stashed future blocks that have become contiguous with the head.
  void drain_stash();
  /// WAL-append a committed block; snapshot every config.snapshot_interval
  /// and compact at the captured recovery point once the log holds
  /// config.wal_compaction_appends blocks.
  void persist_block(const ledger::Block& block);
  /// Persist a checkpoint snapshot (truncates the WAL). No-op without store.
  void persist_snapshot();
  /// Stake-transform commit landed: either snapshot eagerly (default) or,
  /// under WAL compaction, capture the checkpoint as the pending recovery
  /// point for the next compaction.
  void persist_recovery_point();

  GovernorId id_;
  runtime::NodeContext& ctx_;
  NodeId node_;
  crypto::SigningKey key_;
  const identity::IdentityManager& im_;
  ledger::ValidationOracle& oracle_;
  const Directory& directory_;
  GovernorConfig config_;
  std::set<CollectorId> visible_;  // empty = all
  // Every send: the governor group (atomic) or per-peer channels (reliable).
  runtime::Delivery out_;

  reputation::ReputationTable table_;
  GovernorMetrics metrics_;
  ScreeningEngine engine_;
  ledger::ChainStore chain_;
  BlockAssembler assembler_;
  ArgueService argues_;
  StakeConsensus stake_consensus_;
  EquivocationDetector equivocation_;
  ScreeningIntake intake_;

  // Adversary layer: installed Byzantine behaviors (all-honest by default).
  adversary::GovernorByzantine byz_;

  Round round_ = 0;
  std::optional<ElectionState> election_;
  // Private coefficient stream for the batched check of each announcement's
  // VRF proofs: its draws never touch the behavioral stream.
  Rng election_rng_;
  bool leader_announced_ = false;  // trace: kLeaderElected emitted this round
  std::set<GovernorId> expelled_;
  // Held equivocation proofs per expelled governor, re-broadcast (at most
  // once per round) when the offender is seen proposing again — so replicas
  // that crashed past the original expel broadcast re-learn the expulsion.
  std::map<GovernorId, Bytes> expel_evidence_;
  Round expel_reshare_round_ = 0;

  // Liveness watchdog (config.watchdog_rounds).
  std::size_t stalled_rounds_ = 0;
  BlockSerial round_start_height_ = 0;

  // Durable state + catch-up sync.
  storage::NodeStateStore* store_ = nullptr;
  std::size_t blocks_since_snapshot_ = 0;
  std::size_t wal_appends_ = 0;  // records currently in the store's log
  /// Checkpoint captured at the latest stake-transform commit, deferred
  /// until the log grows past config.wal_compaction_appends (WAL compaction
  /// only; the eager path snapshots immediately instead).
  struct RecoveryPoint {
    Bytes checkpoint;
    std::size_t covered_records = 0;  // WAL length when it was captured
  };
  std::optional<RecoveryPoint> recovery_point_;
  std::vector<NodeId> sync_peers_;  // other governors' nodes
  bool sync_in_flight_ = false;
  std::uint64_t sync_nonce_ = 0;  // guards the per-request timeout timers
  std::uint64_t sync_attempts_ = 0;  // rotates the polled peer across retries
  // Peers that reported nothing above our head in the current sync pass. One
  // such answer is not proof of being caught up (the peer may be exactly as
  // far behind — e.g. our partition island mate); the pass only concludes
  // once a majority of peers agree.
  std::size_t sync_not_found_ = 0;
  // Reliable-mode hold-down: a governor that restarted — or that committed
  // nothing in the previous round and so may have silently fallen behind —
  // must not announce in elections (and so can never lead) until one sync
  // pass completes: a stale winner would fork itself by proposing on an
  // outdated chain. While recovering, a timed-out sync retries against the
  // next peer.
  bool recovering_ = false;
  // True once a sync pass has confirmed the head since the last commit.
  // Bounds the stall-triggered hold-down to one round per stall episode, so
  // a cluster-wide stall (e.g. a quorum-splitting partition) cannot keep
  // every governor out of the election forever.
  bool head_checked_ = false;
  // Byzantine defense: sync responses are corroborated before adoption —
  // a block is appended only once two distinct peers served byte-identical
  // encodings (single-peer topologies adopt directly). Losing candidates'
  // servers are distrusted and skipped by later request_block rotations.
  struct SyncCandidate {
    Bytes encoding;
    std::set<NodeId> peers;
  };
  std::map<BlockSerial, std::vector<SyncCandidate>> sync_candidates_;
  std::set<NodeId> distrusted_peers_;
  // Authenticated proposals from ahead of our head (we missed blocks while
  // down): stashed until sync fills the gap, rejected if it cannot.
  std::map<BlockSerial, ledger::Block> future_blocks_;
  // Proposals whose leader check failed while this round's winner was still
  // undecided (election not yet closed, or announcements still in flight):
  // re-evaluated on every fresh announcement and at close, dropped at the
  // next begin_round. Without the retry, a proposal racing ahead of its
  // election — common right after a heal or restart — is rejected forever
  // even though the reliable channel delivered it exactly once.
  std::vector<ledger::Block> pending_proposals_;
  // Announcements that arrived for a round this replica has not begun yet.
  // Every governor announces exactly at the round boundary, so on real
  // clocks sub-millisecond timer skew routinely lands a peer's announcement
  // while the local election still belongs to the previous round; dropping
  // it would silently shrink the election view (and fork the chain whenever
  // the dropped ticket was the winner). Replayed at the next begin_round,
  // bounded to the immediately following rounds.
  static constexpr std::size_t kMaxEarlyAnnouncements = 64;
  std::vector<runtime::Message> early_announcements_;

  // Self-driving mode (drive_rounds).
  bool auto_rounds_ = false;
  RoundTiming auto_timing_;
};

}  // namespace repchain::protocol
