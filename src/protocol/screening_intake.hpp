#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adversary/byzantine.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/transaction.hpp"
#include "protocol/argue_service.hpp"
#include "protocol/block_assembly.hpp"
#include "protocol/directory.hpp"
#include "protocol/equivocation_detector.hpp"
#include "protocol/governor_types.hpp"
#include "protocol/screening.hpp"
#include "protocol/verified_batch.hpp"
#include "runtime/message.hpp"
#include "runtime/timer.hpp"

namespace repchain::protocol {

/// The uploading-phase front-end of Algorithm 2: authenticates collector
/// uploads, verifies the contained provider signature (Algorithm 3 case 1 on
/// failure), aggregates reports per transaction over the Delta window on the
/// node's timers, and routes each screening outcome to the block assembler /
/// argue service.
///
/// Signature checks run batched: on_upload runs only the non-cryptographic
/// gates inline, queues the surviving signatures in a VerifiedBatch, and
/// arms a zero-delay flush timer. All uploads landing at one instant —
/// collector bursts collapsed onto a single delivery time by the atomic
/// broadcast's in-order rule — settle through one VerifiedBatch (each
/// signature checks its own equation and the wave shares one field
/// inversion), then flow through the per-upload pipeline in arrival order. A
/// (TxId, signature) memo additionally skips re-verifying a provider
/// signature this governor already proved genuine for an earlier reporter of
/// the same transaction. Settling draws no randomness, so behavioral streams
/// (and the fixed-seed goldens pinned to them) are untouched.
class ScreeningIntake {
 public:
  ScreeningIntake(const identity::IdentityManager& im, const Directory& directory,
                  reputation::ReputationTable& table, ScreeningEngine& engine,
                  BlockAssembler& assembler, ArgueService& argues,
                  EquivocationDetector& equivocation, GovernorMetrics& metrics,
                  runtime::TimerService& timers, const GovernorConfig& config,
                  const std::set<CollectorId>& visible)
      : im_(im), directory_(directory), table_(table), engine_(engine),
        assembler_(assembler), argues_(argues), equivocation_(equivocation),
        metrics_(metrics), timers_(timers), config_(config), visible_(visible) {}

  /// A kCollectorUpload delivery.
  void on_upload(const runtime::Message& msg);

  /// True iff this governor perceives `collector` (always true in the
  /// full-visibility default; see Governor::sees).
  [[nodiscard]] bool sees(CollectorId collector) const {
    return visible_.empty() || visible_.contains(collector);
  }

  /// Restore path: drop in-flight aggregation windows and any unflushed
  /// verification batch. The screened-id set is intentionally kept: it is a
  /// replay guard, and replays can arrive after a restore (e.g.
  /// reliable-channel retransmits from before a crash).
  void clear() {
    aggregations_.clear();
    pending_uploads_.clear();
    batch_.clear();
    flush_armed_ = false;
    provider_sig_memo_.clear();
    screen_queue_.clear();
  }

  /// Round boundary: shift the double-spend serial-guard generations (a
  /// container swap; a no-op unless the byzantine defense populated them)
  /// and retire the round's verified-provider-signature memo.
  void age_out();

  /// True iff the byzantine defense has blacklisted `provider` for serial
  /// reuse (argues from such providers must not resurrect withdrawn twins).
  [[nodiscard]] bool blacklisted(ProviderId provider) const {
    return blacklisted_.contains(provider);
  }

  /// Install a callback fired once per detected double-spend so the host
  /// can emit kByzantineEvidence traces; arg is the offending provider id.
  void set_evidence(std::function<void(adversary::ByzantineKind, std::uint64_t)> cb) {
    evidence_ = std::move(cb);
  }

 private:
  struct Aggregation {
    ledger::Transaction tx;
    std::vector<reputation::Report> reports;
    std::unordered_set<CollectorId> reporters;
    bool screened = false;
  };

  /// One decoded upload awaiting its batched signature verdicts.
  struct PendingUpload {
    ledger::LabeledTransaction ltx;
    ledger::TxId id{};
    VerifiedBatch::Index collector_check = 0;
    VerifiedBatch::Index provider_check = 0;
    bool provider_known = false;     // linked with the reporting collector
    bool provider_in_batch = false;  // provider sig went through crypto (memo miss)
  };

  /// Settle the queued batch and run every buffered upload through the
  /// post-verification pipeline in arrival order.
  void flush();
  /// The pipeline tail: everything after the two signature verdicts are
  /// known.
  void ingest(const ledger::LabeledTransaction& ltx, const ledger::TxId& id,
              bool collector_ok, bool provider_known, bool provider_sig_ok);
  /// Queue `id` for screening at now + aggregation_delta. Deadlines are
  /// monotone, so each distinct deadline arms exactly one sweep timer and
  /// every same-instant burst screens inside one event.
  void schedule_screen(const ledger::TxId& id);
  /// Screen every queued transaction whose deadline has arrived, then hand
  /// the resulting records to the assembler as one pre-verified batch.
  void screen_sweep();
  void screen(const ledger::TxId& id);
  /// Byzantine defense (config.byzantine_defense): reject a second distinct
  /// transaction reusing a (provider, seq) slot — a double-spend — and
  /// blacklist the provider. Returns true when the upload must be dropped.
  [[nodiscard]] bool double_spend_guard(const ledger::Transaction& tx,
                                        const ledger::TxId& id);

  const identity::IdentityManager& im_;
  const Directory& directory_;
  reputation::ReputationTable& table_;
  ScreeningEngine& engine_;
  BlockAssembler& assembler_;
  ArgueService& argues_;
  EquivocationDetector& equivocation_;
  GovernorMetrics& metrics_;
  runtime::TimerService& timers_;
  const GovernorConfig& config_;
  const std::set<CollectorId>& visible_;  // empty = all

  std::unordered_map<ledger::TxId, Aggregation, ledger::TxIdHash> aggregations_;
  // Every transaction ever screened by this governor. `packed`/`known` only
  // cover appended/unchecked outcomes; without this set, a retransmitted
  // upload arriving after a kDiscardedInvalid screening would reopen an
  // aggregation window for an already-decided transaction.
  std::unordered_set<ledger::TxId, ledger::TxIdHash> screened_;

  // Byzantine defense: two-generation (provider, seq) -> TxId serial guard.
  // A second distinct transaction in the same slot within the window is a
  // double-spend; collectors broadcast uploads to every governor, so the
  // check is locally deterministic at each of them.
  using SerialGen = std::map<std::pair<std::uint32_t, std::uint64_t>, ledger::TxId>;
  SerialGen serials_;
  SerialGen serials_prev_;
  std::set<ProviderId> blacklisted_;
  std::function<void(adversary::ByzantineKind, std::uint64_t)> evidence_;

  // Batched verification state. The flush timer fires at the same SimTime
  // as the deliveries it covers (zero delay), so trace timestamps and every
  // cross-instant ordering are unchanged.
  VerifiedBatch batch_;
  std::vector<PendingUpload> pending_uploads_;
  bool flush_armed_ = false;
  // Provider signatures proven genuine this round, keyed by TxId and
  // matched on exact signature bytes (TxId excludes the signature, so the
  // bytes must be compared — a forged signature must never ride a genuine
  // transaction's memo entry).
  std::unordered_map<ledger::TxId, crypto::Signature, ledger::TxIdHash>
      provider_sig_memo_;

  // Screening deadlines in FIFO order (monotone first components) and the
  // reusable record buffer the sweep hands to the assembler in bulk.
  std::deque<std::pair<SimTime, ledger::TxId>> screen_queue_;
  std::vector<PendingRecord> screen_batch_;
};

}  // namespace repchain::protocol
