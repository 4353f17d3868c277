#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "crypto/ed25519.hpp"
#include "identity/identity_manager.hpp"
#include "protocol/directory.hpp"
#include "protocol/messages.hpp"
#include "protocol/stake.hpp"
#include "runtime/delivery.hpp"

namespace repchain::protocol {

/// The governor's stake ledger plus the 3-step stake consensus of §3.4.3:
/// transfers are broadcast with per-sender sequence numbers (replay
/// protection), the round leader proposes the NEW_STATE derived from them,
/// every governor checks the derivation and signs, and the leader commits
/// once all non-expelled governors signed. A conflicting proposal is
/// returned to the caller as expel evidence.
///
/// The facade authenticates senders before calling in; the round/leader view
/// is passed per call so the state machine is unit-testable round by round.
/// Every send goes through the governor's runtime::Delivery, whichever
/// primitive it runs on.
class StakeConsensus {
 public:
  StakeConsensus(GovernorId self, const crypto::SigningKey& key,
                 const identity::IdentityManager& im, const Directory& directory,
                 runtime::Delivery& out, StakeLedger genesis)
      : self_(self), key_(key), im_(im), directory_(directory), out_(out),
        stake_(std::move(genesis)) {}

  /// Queue a stake transfer (broadcast to all governors, §3.4.3).
  void submit_transfer(GovernorId to, std::uint64_t amount);

  /// An authenticated transfer arrived (in any order relative to other
  /// senders' transfers; see expected_state()).
  void on_stake_tx(StakeTxMsg stx);

  /// Leader entry point: propose the NEW_STATE over this round's transfers
  /// (no-op when there are none).
  void run_as_leader(Round round);

  /// Step 2: verify the leader's proposal against the locally derived state
  /// and sign it; a conflicting proposal is returned as expel evidence
  /// (StateProposalMsg encoding) for the caller to broadcast.
  [[nodiscard]] std::optional<Bytes> on_proposal(const StateProposalMsg& proposal,
                                                 Round round);

  /// Step 2->3 (leader side): collect a governor's signature; commits once
  /// every non-expelled governor signed.
  void on_signature(const StateSignatureMsg& sig, Round round,
                    const std::set<GovernorId>& expelled);

  /// Step 3: verify the full signature set and apply the NEW_STATE. Returns
  /// true iff the state was applied — a stake-transform commit, which is the
  /// paper's checkpoint trigger (the caller snapshots durable state on it).
  bool on_commit(const StateCommitMsg& commit, Round round,
                 std::optional<GovernorId> leader,
                 const std::set<GovernorId>& expelled);

  /// Expel verification: does `proposal` match the state this governor
  /// derives for the given round?
  [[nodiscard]] bool matches_expected(const StateProposalMsg& proposal,
                                      Round round) const;

  /// The state the received transfers derive from the current ledger,
  /// applied in canonical (sender, sequence) order: every governor that
  /// received the same transfers derives the same state, whatever order they
  /// arrived in. That order equals atomic-broadcast arrival order whenever a
  /// round's transfers are submitted in sender order.
  [[nodiscard]] StakeLedger expected_state() const;

  [[nodiscard]] const StakeLedger& stake() const { return stake_; }
  [[nodiscard]] bool has_pending_transfers() const {
    return !round_stake_txs_.empty();
  }

  /// For a byzantine-leader test: corrupt the proposed state.
  void set_cheat(bool cheat) { cheat_ = cheat; }

  /// Restore path: install a checkpointed ledger.
  void restore_stake(StakeLedger stake) { stake_ = std::move(stake); }

 private:
  GovernorId self_;
  const crypto::SigningKey& key_;
  const identity::IdentityManager& im_;
  const Directory& directory_;
  runtime::Delivery& out_;

  StakeLedger stake_;
  std::uint64_t next_seq_ = 0;
  // Replay protection per sender: a contiguous next-expected mark plus the
  // sparse set of sequences seen above it. With the atomic broadcast the set
  // stays empty (in-order arrival); the reliable channel does not preserve
  // order, so out-of-order fresh sequences must still be accepted exactly
  // once.
  struct SeqRecv {
    std::uint64_t next = 0;           // everything below is seen
    std::set<std::uint64_t> above;    // sparse seen sequences >= next
  };
  std::unordered_map<GovernorId, SeqRecv> seq_seen_;
  std::vector<StakeTxMsg> round_stake_txs_;
  std::optional<StateProposalMsg> current_proposal_;
  std::vector<StateSignatureMsg> collected_sigs_;
  std::set<GovernorId> sig_senders_;
  Round last_commit_round_ = 0;  // duplicate-commit guard (idempotent receive)
  bool cheat_ = false;
};

}  // namespace repchain::protocol
