#include "protocol/equivocation_detector.hpp"

#include "common/errors.hpp"
#include "common/serial.hpp"

namespace repchain::protocol {

void EquivocationDetector::note_label(const ledger::TxId& id,
                                      const ledger::LabeledTransaction& ltx) {
  seen_labels_[id].emplace(ltx.collector, ltx);
  ungossiped_.push_back(ltx);
}

void EquivocationDetector::age_out() {
  seen_labels_prev_ = std::move(seen_labels_);
  seen_labels_.clear();
  seen_proposals_prev_ = std::move(seen_proposals_);
  seen_proposals_.clear();
}

EquivocationDetector::ProposalNote EquivocationDetector::note_proposal(
    const ledger::Block& block) {
  ProposalNote note;
  const auto leader_node = directory_.find_node(block.leader);
  if (!leader_node || !im_.authorize(*leader_node, identity::Role::kGovernor,
                                     block.signed_preimage(), block.leader_sig)) {
    return note;  // unsigned claims are not evidence of anything
  }
  const auto key = std::make_pair(block.leader.value(), block.serial);
  const auto hash = block.hash();
  for (ProposalGen* gen : {&seen_proposals_, &seen_proposals_prev_}) {
    const auto it = gen->find(key);
    if (it == gen->end()) continue;
    if (it->second.hash() == hash) return note;  // duplicate of the known block
    // Two valid leader signatures over different blocks at one serial.
    if (proposal_punished_.insert(key).second) {
      note.conflict = it->second;
      ++metrics_.proposal_equivocations;
      if (evidence_) {
        evidence_(adversary::ByzantineKind::kProposalEquivocation, block.leader.value());
      }
    }
    return note;
  }
  seen_proposals_.emplace(key, block);
  note.fresh = true;
  return note;
}

bool EquivocationDetector::proposal_conflicted(GovernorId leader,
                                               BlockSerial serial) const {
  return proposal_punished_.contains({leader.value(), serial});
}

std::optional<Bytes> EquivocationDetector::take_gossip_payload() {
  if (ungossiped_.empty()) return std::nullopt;
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(ungossiped_.size()));
  for (const auto& ltx : ungossiped_) w.bytes(ltx.encode());
  ungossiped_.clear();
  return std::move(w).take();
}

void EquivocationDetector::on_gossip_payload(BytesView payload) {
  std::vector<ledger::LabeledTransaction> ltxs;
  try {
    BinaryReader r(payload);
    const auto n = r.u32();
    ltxs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ltxs.push_back(ledger::LabeledTransaction::decode(r.bytes()));
    }
    r.expect_done();
  } catch (const DecodeError&) {
    return;
  }
  on_gossip(ltxs);
}

void EquivocationDetector::on_gossip(
    const std::vector<ledger::LabeledTransaction>& ltxs) {
  for (const auto& remote : ltxs) {
    // Only a label that conflicts with the local copy can be evidence, so
    // the (pure) signature check runs only then: almost every gossiped label
    // equals its local copy.
    const ledger::TxId id = remote.tx.id();
    const ledger::LabeledTransaction* local = nullptr;
    for (const LabelGen* gen : {&seen_labels_, &seen_labels_prev_}) {
      const auto tit = gen->find(id);
      if (tit == gen->end()) continue;
      const auto cit = tit->second.find(remote.collector);
      if (cit != tit->second.end()) {
        local = &cit->second;
        break;
      }
    }
    if (local == nullptr || local->label == remote.label) continue;
    // Only a genuinely signed remote label is evidence.
    const auto collector_node = directory_.find_node(remote.collector);
    if (!collector_node ||
        !im_.authorize(*collector_node, identity::Role::kCollector,
                       remote.signed_preimage(), remote.collector_sig)) {
      continue;
    }

    // Two valid signatures by the same collector over conflicting labels for
    // one transaction: a self-contained equivocation proof.
    const auto key = std::make_pair(remote.collector.value(), to_hex(view(id)));
    if (!punished_.insert(key).second) continue;
    ++metrics_.equivocations_detected;
    table_.punish_forgery(remote.collector);
    if (evidence_) {
      evidence_(adversary::ByzantineKind::kCollectorEquivocation,
                remote.collector.value());
    }
  }
}

}  // namespace repchain::protocol
