#include "protocol/stake_consensus.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace repchain::protocol {

void StakeConsensus::submit_transfer(GovernorId to, std::uint64_t amount) {
  const StakeTxMsg msg = make_stake_tx(self_, to, amount, next_seq_++, key_);
  out_.broadcast(runtime::MsgKind::kStakeTx, msg.encode());
}

void StakeConsensus::on_stake_tx(StakeTxMsg stx) {
  SeqRecv& rec = seq_seen_[stx.from];
  if (stx.seq < rec.next) return;                   // replay below the mark
  if (!rec.above.insert(stx.seq).second) return;    // duplicate above it
  while (rec.above.erase(rec.next) > 0) ++rec.next;
  round_stake_txs_.push_back(std::move(stx));
}

StakeLedger StakeConsensus::expected_state() const {
  StakeLedger state = stake_;
  std::vector<const StakeTxMsg*> ordered;
  ordered.reserve(round_stake_txs_.size());
  for (const auto& stx : round_stake_txs_) ordered.push_back(&stx);
  // Canonical (sender, sequence) order, not arrival order: the reliable
  // channel does not preserve cross-sender order, and a transfer that
  // overdraws unless another sender's lands first must resolve the same way
  // on every governor.
  std::ranges::sort(ordered, [](const StakeTxMsg* a, const StakeTxMsg* b) {
    if (a->from != b->from) return a->from < b->from;
    return a->seq < b->seq;
  });
  for (const StakeTxMsg* stx : ordered) {
    try {
      state.transfer(stx->from, stx->to, stx->amount);
    } catch (const ProtocolError&) {
      // Insufficient funds / unknown party: skipped identically by every
      // governor (identical application order, see above).
    }
  }
  return state;
}

void StakeConsensus::run_as_leader(Round round) {
  if (round_stake_txs_.empty()) return;

  StakeLedger state = expected_state();
  if (cheat_) {
    // A byzantine leader credits itself (test hook).
    state.set(self_, state.of(self_) + 1000);
  }

  StateProposalMsg proposal;
  proposal.round = round;
  proposal.leader = self_;
  proposal.state = state.encode();
  proposal.leader_sig = key_.sign(proposal.signed_preimage());

  // Install the proposal and this leader's own signature immediately: other
  // governors' signatures can arrive before our own group copy does.
  current_proposal_ = proposal;
  collected_sigs_.clear();
  sig_senders_.clear();
  StateSignatureMsg own;
  own.round = round;
  own.signer = self_;
  own.sig = key_.sign(proposal.signed_preimage());
  sig_senders_.insert(self_);
  collected_sigs_.push_back(own);

  out_.broadcast(runtime::MsgKind::kStateProposal, proposal.encode());
}

std::optional<Bytes> StakeConsensus::on_proposal(const StateProposalMsg& proposal,
                                                 Round round) {
  // Consistency: the proposed NEW_STATE must equal the state derived from
  // the stake transactions this governor received.
  const StakeLedger expected = expected_state();
  if (proposal.state != expected.encode()) {
    // Step 2 failure branch: return the evidence to expel the leader.
    return proposal.encode();
  }
  (void)round;

  if (proposal.leader == self_) return std::nullopt;  // own copy, handled at
                                                      // proposal time

  // Idempotent receive: a redelivered copy of the proposal we already signed
  // must not trigger a second signature.
  if (current_proposal_ && current_proposal_->round == proposal.round &&
      current_proposal_->leader == proposal.leader &&
      current_proposal_->state == proposal.state) {
    return std::nullopt;
  }

  current_proposal_ = proposal;
  StateSignatureMsg sig;
  sig.round = proposal.round;
  sig.signer = self_;
  sig.sig = key_.sign(proposal.signed_preimage());
  out_.send(directory_.node_of(proposal.leader), runtime::MsgKind::kStateSignature,
            sig.encode());
  return std::nullopt;
}

void StakeConsensus::on_signature(const StateSignatureMsg& sig, Round round,
                                  const std::set<GovernorId>& expelled) {
  if (!current_proposal_ || current_proposal_->leader != self_) return;
  if (sig.round != round) return;
  const auto signer_node = directory_.find_node(sig.signer);
  if (!signer_node ||
      !im_.authenticate(*signer_node, current_proposal_->signed_preimage(), sig.sig)) {
    return;
  }
  if (!sig_senders_.insert(sig.signer).second) return;
  collected_sigs_.push_back(sig);

  // When all (non-expelled) governors signed, commit.
  std::size_t expected = 0;
  for (GovernorId g : directory_.governors()) {
    if (!expelled.contains(g)) ++expected;
  }
  if (collected_sigs_.size() == expected) {
    StateCommitMsg commit;
    commit.round = round;
    commit.leader = self_;
    commit.state = current_proposal_->state;
    commit.signatures = collected_sigs_;
    out_.broadcast(runtime::MsgKind::kStateCommit, commit.encode());
  }
}

bool StakeConsensus::on_commit(const StateCommitMsg& commit, Round round,
                               std::optional<GovernorId> leader,
                               const std::set<GovernorId>& expelled) {
  if (commit.round != round) return false;
  if (!leader || commit.leader != *leader) return false;
  // Idempotent receive: a redelivered commit for an already-applied round is
  // dropped (it carries the same NEW_STATE; re-applying would re-trigger the
  // caller's snapshot).
  if (last_commit_round_ != 0 && commit.round <= last_commit_round_) return false;

  // Rebuild the proposal preimage and verify every signature.
  StateProposalMsg proposal;
  proposal.round = commit.round;
  proposal.leader = commit.leader;
  proposal.state = commit.state;
  const Bytes preimage = proposal.signed_preimage();

  std::size_t expected = 0;
  for (GovernorId g : directory_.governors()) {
    if (!expelled.contains(g)) ++expected;
  }
  if (commit.signatures.size() != expected) return false;

  std::set<GovernorId> signers;
  for (const auto& sig : commit.signatures) {
    const auto signer_node = directory_.find_node(sig.signer);
    if (!signer_node || !im_.authenticate(*signer_node, preimage, sig.sig)) return false;
    if (!signers.insert(sig.signer).second) return false;
  }

  // Apply NEW_STATE.
  try {
    stake_ = StakeLedger::decode(commit.state);
  } catch (const DecodeError&) {
    return false;
  }
  round_stake_txs_.clear();
  current_proposal_.reset();
  collected_sigs_.clear();
  sig_senders_.clear();
  last_commit_round_ = commit.round;
  return true;
}

bool StakeConsensus::matches_expected(const StateProposalMsg& proposal,
                                      Round round) const {
  return proposal.round == round && proposal.state == expected_state().encode();
}

}  // namespace repchain::protocol
