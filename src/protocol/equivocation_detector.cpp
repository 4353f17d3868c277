#include "protocol/equivocation_detector.hpp"

#include "common/errors.hpp"
#include "common/serial.hpp"
#include "protocol/verified_batch.hpp"

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
  punished_prev_ = std::move(punished_);
  punished_.clear();
}

EquivocationDetector::ProposalNote EquivocationDetector::note_proposal(
    const ledger::Block& block) {
  ProposalNote note;
  const auto key = std::make_pair(block.leader.value(), block.serial);
  const ledger::Block* held = nullptr;
  for (const ProposalGen* gen : {&seen_proposals_, &seen_proposals_prev_}) {
    const auto it = gen->find(key);
    if (it != gen->end()) {
      held = &it->second;
      break;
    }
  }
  // An echo copy of the held block: same signature, already verified.
  if (held != nullptr && *held == block) return note;
  const auto leader_node = directory_.find_node(block.leader);
  if (!leader_node || !im_.authorize(*leader_node, identity::Role::kGovernor,
                                     block.signed_preimage(), block.leader_sig)) {
    return note;  // unsigned claims are not evidence of anything
  }
  if (held == nullptr) {
    seen_proposals_.emplace(key, block);
    note.fresh = true;
    return note;
  }
  // Two valid leader signatures over different blocks at one serial.
  if (proposal_punished_.insert(key).second) {
    note.conflict = *held;
    ++metrics_.proposal_equivocations;
    if (evidence_) {
      evidence_(adversary::ByzantineKind::kProposalEquivocation, block.leader.value());
    }
  }
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

const ledger::LabeledTransaction* EquivocationDetector::local_label(
    const ledger::TxId& id, CollectorId collector) const {
  for (const LabelGen* gen : {&seen_labels_, &seen_labels_prev_}) {
    const auto tit = gen->find(id);
    if (tit == gen->end()) continue;
    const auto cit = tit->second.find(collector);
    if (cit != tit->second.end()) return &cit->second;
  }
  return nullptr;
}

void EquivocationDetector::on_gossip(
    const std::vector<ledger::LabeledTransaction>& ltxs) {
  // Only a label that conflicts with the local copy can be evidence, so
  // signatures are checked only then (almost every gossiped label equals
  // its local copy), and not for a pair already punished.
  struct Candidate {
    CollectorId collector;
    ledger::TxId id;
    VerifiedBatch::Index check;
  };
  std::vector<Candidate> candidates;
  VerifiedBatch batch;
  for (const auto& remote : ltxs) {
    const ledger::TxId id = remote.tx.id();
    const ledger::LabeledTransaction* local = local_label(id, remote.collector);
    if (local == nullptr || local->label == remote.label) continue;
    if (punished_.contains({remote.collector, id}) ||
        punished_prev_.contains({remote.collector, id})) {
      continue;
    }
    // Only a genuinely signed remote label is evidence.
    const auto collector_node = directory_.find_node(remote.collector);
    const crypto::VerifyingKey* key =
        collector_node ? im_.verification_key(*collector_node, identity::Role::kCollector)
                       : nullptr;
    if (key == nullptr) continue;
    candidates.push_back(Candidate{remote.collector, id,
                                   batch.add(*key, remote.signed_preimage(),
                                             remote.collector_sig)});
  }
  if (candidates.empty()) return;
  batch.settle();

  for (const Candidate& c : candidates) {
    // Two valid signatures by the same collector over conflicting labels for
    // one transaction: a self-contained equivocation proof.
    if (!batch.ok(c.check) || !punished_.emplace(c.collector, c.id).second) continue;
    ++metrics_.equivocations_detected;
    table_.punish_forgery(c.collector);
    if (evidence_) {
      evidence_(adversary::ByzantineKind::kCollectorEquivocation, c.collector.value());
    }
  }
}

}  // namespace repchain::protocol
