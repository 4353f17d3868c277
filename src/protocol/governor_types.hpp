#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.hpp"
#include "ledger/transaction.hpp"
#include "reputation/reputation_table.hpp"

namespace repchain::protocol {

/// Governor configuration.
struct GovernorConfig {
  reputation::ReputationParams rep;
  /// b_limit: maximum transactions per block (§3.1).
  std::size_t block_limit = 1000;
  /// Aggregation window Delta after a transaction's first report (the
  /// starttime/endtime timer of Algorithm 2).
  SimDuration aggregation_delta = 25 * kMillisecond;
  /// Extension (§4.2: collectors "reporting different results to different
  /// governors"): when enabled, governors gossip the signed labels they
  /// received; two valid collector signatures over conflicting labels for
  /// the same transaction are a self-contained equivocation proof, punished
  /// like a forgery.
  bool enable_label_gossip = false;
  /// When a NodeStateStore is attached: also persist a checkpoint snapshot
  /// (and truncate the WAL) every N committed blocks. 0 keeps the paper's
  /// recovery points only — snapshots happen at stake-transform commits.
  std::size_t snapshot_interval = 0;
  /// WAL compaction: once the log holds at least N appended blocks, persist
  /// the checkpoint captured at the latest stake-transform commit (the
  /// paper's recovery point) and truncate the log at that point, keeping the
  /// tail — so replay length stays bounded by N plus the blocks since that
  /// commit, without snapshotting eagerly on every stake transform. 0 (the
  /// default) keeps the eager behavior: a full snapshot at each commit.
  std::size_t wal_compaction_appends = 0;
  /// Opt-in reliable delivery, the run's one delivery-mode setting: hosts
  /// hand it to providers and collectors too, so all three tiers' traffic
  /// (submissions, uploads, argues, governor peer messages, block sync) goes
  /// through per-node ReliableChannels (ack + retransmit + backoff) instead
  /// of the bare transport and the atomic broadcast groups, and the leader
  /// election closes on a majority quorum at propose time rather than
  /// requiring every announcement. Off by default — the clean-network
  /// golden runs stay bit-identical.
  bool reliable_delivery = false;
  /// Liveness watchdog: after this many consecutive rounds without a local
  /// commit, the governor emits a kRoundStalled trace and triggers a peer
  /// sync instead of hanging. 0 disables (the default; fault schedules
  /// enable it).
  std::size_t watchdog_rounds = 0;
  /// ReliableChannel incarnation number; the host increments it across
  /// crash/restart cycles so peers never mistake the new life's sequence
  /// space for replays of the old one.
  std::uint32_t channel_epoch = 0;
  /// Byzantine defenses (this PR's adversary layer): leader-proposal
  /// equivocation detection with a short settle window, sync-response
  /// corroboration against a second peer, and a per-provider serial guard
  /// against double-spends. Off by default — honest-run goldens stay
  /// bit-identical; scenarios switch it on whenever an AdversarySpec is
  /// scheduled.
  bool byzantine_defense = false;
};

/// Loss bookkeeping on one unchecked transaction, kept for the experiments:
/// the paper's L counts 2 per unchecked transaction whose true state was
/// valid (it was recorded invalid).
struct UncheckedEntry {
  ledger::Transaction tx;
  std::vector<reputation::Report> reports;  // screening-time snapshot
  double expected_loss = 0.0;               // L_tx at screening time (metric)
  bool truly_valid = false;                 // ground truth (metric only)
  bool revealed = false;
};

/// Governor metrics for the benches.
struct GovernorMetrics {
  std::uint64_t uploads_received = 0;
  std::uint64_t uploads_rejected = 0;   // bad collector signature / unknown
  std::uint64_t forgeries_detected = 0;
  std::uint64_t duplicate_reports = 0;
  std::uint64_t argues_received = 0;
  std::uint64_t argues_accepted = 0;
  std::uint64_t argues_rejected_late = 0;
  std::uint64_t argue_validations = 0;
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_rejected = 0;
  std::uint64_t blocks_synced = 0;  // adopted via catch-up sync, not proposal
  std::uint64_t sync_timeouts = 0;  // catch-up requests that got no answer
  std::uint64_t watchdog_trips = 0; // kRoundStalled events emitted
  std::uint64_t equivocations_detected = 0;
  std::uint64_t uploads_invisible = 0;  // from collectors outside this
                                        // governor's partial view
  // Byzantine-defense counters (adversary layer).
  std::uint64_t proposal_equivocations = 0;  // conflicting signed leader proposals
  std::uint64_t lying_sync_rejected = 0;     // sync responses that failed validation
  std::uint64_t double_spends_detected = 0;  // provider serial reuse caught
  std::uint64_t byzantine_evidence = 0;      // kByzantineEvidence traces emitted
  // Attack-side counters: what an installed Byzantine behavior actually did
  // (benches compare these against the defense counters above).
  std::uint64_t byzantine_equivocations_sent = 0;  // conflicting proposals sent
  std::uint64_t byzantine_lies_served = 0;         // forged sync responses served
  std::uint64_t byzantine_lies_to_governors = 0;   // ... of which to governor peers
                                                   // (the callers able to corroborate)
  /// Realized mistakes: unchecked transactions whose revealed truth was
  /// valid (each costs the paper's loss of 2).
  std::uint64_t mistakes = 0;
  /// Sum of L_tx over all unchecked transactions (paper's expected loss).
  double expected_loss = 0.0;
  /// Realized loss 2 * (# unchecked with true state valid), counted at
  /// screening time from ground truth (metric only; the governor itself
  /// learns it only on reveal).
  double realized_loss = 0.0;
};

}  // namespace repchain::protocol
