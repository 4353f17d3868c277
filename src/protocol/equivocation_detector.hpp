#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adversary/byzantine.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/block.hpp"
#include "ledger/transaction.hpp"
#include "protocol/directory.hpp"
#include "protocol/governor_types.hpp"
#include "reputation/reputation_table.hpp"

namespace repchain::protocol {

/// The equivocation-detection extension (§4.2: collectors "reporting
/// different results to different governors"): keeps the signed labels this
/// governor received, gossips them to peers, and cross-checks incoming
/// gossip against the local copies. Two valid collector signatures over
/// conflicting labels for the same transaction are a self-contained proof,
/// punished like a forgery (at most once per (collector, tx)).
///
/// Evidence is kept for two round generations: the current round's labels
/// plus the previous round's (conflicts can only surface within the
/// synchrony window), aged out each round so memory stays bounded. The
/// punished (collector, tx) pairs age with them: a pair can only be detected
/// again while its local label is held.
///
/// The conflicting labels of one gossip message are verified together, in
/// one VerifiedBatch.
class EquivocationDetector {
 public:
  EquivocationDetector(const identity::IdentityManager& im,
                       const Directory& directory,
                       reputation::ReputationTable& table, GovernorMetrics& metrics)
      : im_(im), directory_(directory), table_(table), metrics_(metrics) {}

  /// Remember a locally received signed label and queue it for gossip.
  void note_label(const ledger::TxId& id, const ledger::LabeledTransaction& ltx);

  /// Round boundary: shift the evidence generations.
  void age_out();

  /// Encode and drain the labels queued since the last gossip; nullopt when
  /// there is nothing to send.
  [[nodiscard]] std::optional<Bytes> take_gossip_payload();

  /// Cross-check a peer's decoded gossip batch against local evidence. A
  /// label that conflicts with the local copy, for a pair not yet punished,
  /// is a candidate; the candidates' signatures are settled in one batch,
  /// and punishments, metrics and evidence callbacks follow in message order.
  void on_gossip(const std::vector<ledger::LabeledTransaction>& ltxs);

  /// Decode a gossip payload (as produced by take_gossip_payload) and
  /// cross-check it; malformed payloads are ignored.
  void on_gossip_payload(BytesView payload);

  /// Outcome of recording one signed leader proposal.
  struct ProposalNote {
    /// First time this exact block was seen from its leader at this serial.
    bool fresh = false;
    /// The previously recorded conflicting block, when the leader signed two
    /// different blocks for the same serial (self-contained equivocation
    /// proof; callers build BlockEquivocationEvidence from it).
    std::optional<ledger::Block> conflict;
  };

  /// Record a block proposal for leader-equivocation detection (§3.4.3
  /// extension: the same two-generation window as labels). A copy equal to
  /// the held block for its (leader, serial) is a duplicate, known without a
  /// signature check: it carries the signature already verified. Otherwise
  /// the leader's signature is verified here; unsigned blocks are ignored
  /// (fresh = false, no conflict). At most one conflict is reported per
  /// (leader, serial).
  [[nodiscard]] ProposalNote note_proposal(const ledger::Block& block);

  /// True when a conflict was already reported for this leader and serial.
  [[nodiscard]] bool proposal_conflicted(GovernorId leader, BlockSerial serial) const;

  /// Install a callback fired once per fresh punishment (collector
  /// equivocation or leader equivocation) so the host can emit
  /// kByzantineEvidence traces without the detector depending on the
  /// runtime layer. arg is the offender's raw id value.
  void set_evidence(std::function<void(adversary::ByzantineKind, std::uint64_t)> cb) {
    evidence_ = std::move(cb);
  }

 private:
  using LabelGen = std::unordered_map<
      ledger::TxId, std::unordered_map<CollectorId, ledger::LabeledTransaction>,
      ledger::TxIdHash>;
  using PunishedGen = std::set<std::pair<CollectorId, ledger::TxId>>;

  /// The held local label of (collector, tx), or nullptr.
  [[nodiscard]] const ledger::LabeledTransaction* local_label(const ledger::TxId& id,
                                                              CollectorId collector) const;

  const identity::IdentityManager& im_;
  const Directory& directory_;
  reputation::ReputationTable& table_;
  GovernorMetrics& metrics_;

  using ProposalGen = std::map<std::pair<std::uint32_t, BlockSerial>, ledger::Block>;

  LabelGen seen_labels_;
  LabelGen seen_labels_prev_;
  std::vector<ledger::LabeledTransaction> ungossiped_;
  PunishedGen punished_;
  PunishedGen punished_prev_;
  ProposalGen seen_proposals_;
  ProposalGen seen_proposals_prev_;
  std::set<std::pair<std::uint32_t, BlockSerial>> proposal_punished_;
  std::function<void(adversary::ByzantineKind, std::uint64_t)> evidence_;
};

}  // namespace repchain::protocol
