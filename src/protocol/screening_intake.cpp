#include "protocol/screening_intake.hpp"

#include "common/errors.hpp"

namespace repchain::protocol {

using ledger::Label;
using ledger::TxStatus;

void ScreeningIntake::on_upload(const runtime::Message& msg) {
  ++metrics_.uploads_received;
  ledger::LabeledTransaction ltx;
  try {
    ltx = ledger::LabeledTransaction::decode(msg.payload);
  } catch (const DecodeError&) {
    ++metrics_.uploads_rejected;
    return;
  }

  if (!sees(ltx.collector)) {
    ++metrics_.uploads_invisible;
    return;
  }

  const auto collector_node = directory_.find_node(ltx.collector);
  if (!collector_node) {
    ++metrics_.uploads_rejected;  // labeled by no registered collector
    return;
  }
  const ledger::TxId id = ltx.tx.id();

  // Run the non-cryptographic gates now, queue the surviving signatures,
  // and let the same-instant flush settle them in bulk. The gates mirror
  // IdentityManager::authorize/authenticate exactly, so the verdicts are
  // what one verification per signature would produce.
  PendingUpload pu;
  const crypto::VerifyingKey* collector_key =
      im_.verification_key(*collector_node, identity::Role::kCollector);
  pu.collector_check = (collector_key != nullptr)
                           ? batch_.add(*collector_key, ltx.signed_preimage(),
                                        ltx.collector_sig)
                           : batch_.add_decided(false);

  pu.id = id;
  pu.provider_known = directory_.linked(ltx.tx.provider, ltx.collector);
  if (pu.provider_known) {
    // Linked implies registered, so this lookup cannot fail.
    const NodeId provider_node = directory_.node_of(ltx.tx.provider);
    const crypto::VerifyingKey* provider_key = im_.verification_key(provider_node);
    if (provider_key == nullptr) {
      pu.provider_check = batch_.add_decided(false);
    } else {
      const auto memo = provider_sig_memo_.find(id);
      if (memo != provider_sig_memo_.end() &&
          memo->second.bytes == ltx.tx.provider_sig.bytes) {
        pu.provider_check = batch_.add_decided(true);
      } else {
        pu.provider_check = batch_.add(*provider_key, ltx.tx.signed_preimage(),
                                       ltx.tx.provider_sig);
        pu.provider_in_batch = true;
      }
    }
  } else {
    pu.provider_check = batch_.add_decided(false);
  }

  pu.ltx = std::move(ltx);
  pending_uploads_.push_back(std::move(pu));
  if (!flush_armed_) {
    flush_armed_ = true;
    // Zero delay: the flush runs at this same SimTime, after every other
    // delivery already in flight for this instant has been processed (their
    // events were scheduled before this timer), so the batch covers the
    // whole same-instant burst.
    timers_.schedule_after(0, [this] { flush(); });
  }
}

void ScreeningIntake::flush() {
  flush_armed_ = false;
  batch_.settle();
  for (PendingUpload& pu : pending_uploads_) {
    if (pu.provider_in_batch && batch_.ok(pu.provider_check)) {
      provider_sig_memo_.insert_or_assign(pu.id, pu.ltx.tx.provider_sig);
    }
    const bool provider_sig_ok = pu.provider_known && batch_.ok(pu.provider_check);
    ingest(pu.ltx, pu.id, batch_.ok(pu.collector_check), pu.provider_known,
           provider_sig_ok);
  }
  pending_uploads_.clear();
  batch_.clear();
}

void ScreeningIntake::ingest(const ledger::LabeledTransaction& ltx,
                             const ledger::TxId& id, bool collector_ok,
                             bool provider_known, bool provider_sig_ok) {
  if (!collector_ok) {
    ++metrics_.uploads_rejected;
    return;
  }

  if (!provider_known || !provider_sig_ok) {
    ++metrics_.forgeries_detected;
    table_.punish_forgery(ltx.collector);
    if (evidence_) {
      evidence_(adversary::ByzantineKind::kForgedUpload, ltx.collector.value());
    }
    return;
  }

  if (assembler_.packed(id) || argues_.known(id) || screened_.contains(id)) {
    // Replay of an already-processed transaction (atomic broadcast plus the
    // timestamped signature makes this benign); ignore.
    return;
  }

  if (config_.byzantine_defense && double_spend_guard(ltx.tx, id)) return;

  auto [it, inserted] = aggregations_.try_emplace(id);
  Aggregation& agg = it->second;
  if (inserted) {
    agg.tx = ltx.tx;
    // starttime(tx, Delta): screen after the aggregation window.
    schedule_screen(id);
  }
  if (agg.screened) return;
  if (!agg.reporters.insert(ltx.collector).second) {
    ++metrics_.duplicate_reports;
    return;
  }
  agg.reports.push_back(reputation::Report{ltx.collector, ltx.label});

  if (config_.enable_label_gossip) equivocation_.note_label(id, ltx);
}

void ScreeningIntake::age_out() {
  serials_prev_ = std::move(serials_);
  serials_.clear();
  provider_sig_memo_.clear();
}

bool ScreeningIntake::double_spend_guard(const ledger::Transaction& tx,
                                         const ledger::TxId& id) {
  if (blacklisted_.contains(tx.provider)) return true;
  const auto key = std::make_pair(tx.provider.value(), tx.seq);
  for (const SerialGen* gen : {&serials_, &serials_prev_}) {
    const auto it = gen->find(key);
    if (it == gen->end()) continue;
    if (it->second == id) return false;  // same transaction, another reporter
    // Two provider-signed transactions sharing one (provider, seq) slot.
    // Which twin a replica saw first depends on arrival order, so keeping
    // the first-seen one would let two different leaders commit different
    // twins in successive rounds: BOTH spends are withdrawn (the stored one
    // is purged from the aggregation window and the pending TXList) and the
    // provider is blacklisted. Twins that already reached a block are past
    // saving, but then the guard rejects the late twin instead, so at most
    // one spend can ever be committed.
    ++metrics_.double_spends_detected;
    blacklisted_.insert(tx.provider);
    const ledger::TxId stored = it->second;
    aggregations_.erase(stored);
    screened_.insert(stored);
    assembler_.drop_pending(stored);
    if (evidence_) {
      evidence_(adversary::ByzantineKind::kDoubleSpend, tx.provider.value());
    }
    return true;
  }
  serials_.emplace(key, id);
  return false;
}

void ScreeningIntake::schedule_screen(const ledger::TxId& id) {
  const SimTime due = timers_.now() + config_.aggregation_delta;
  // Deadlines are monotone (now is monotone, the delta fixed), so a fresh
  // deadline only ever appends, and each distinct one arms a single sweep.
  const bool arm = screen_queue_.empty() || screen_queue_.back().first != due;
  screen_queue_.emplace_back(due, id);
  if (arm) {
    timers_.schedule_after(config_.aggregation_delta, [this] { screen_sweep(); });
  }
}

void ScreeningIntake::screen_sweep() {
  const SimTime now = timers_.now();
  while (!screen_queue_.empty() && screen_queue_.front().first <= now) {
    screen(screen_queue_.front().second);
    screen_queue_.pop_front();
  }
  // One bulk, pre-verified handoff per burst; the buffer's capacity is
  // retained for the next sweep.
  if (!screen_batch_.empty()) assembler_.add_pending_batch(screen_batch_);
}

void ScreeningIntake::screen(const ledger::TxId& id) {
  const auto it = aggregations_.find(id);
  if (it == aggregations_.end() || it->second.screened) return;
  Aggregation& agg = it->second;
  agg.screened = true;
  screened_.insert(id);

  const ScreeningOutcome out = engine_.screen(agg.tx, id, agg.reports);
  switch (out.kind) {
    case ScreeningKind::kAppendedValid: {
      PendingRecord& pending = screen_batch_.emplace_back();
      pending.record.tx = std::move(agg.tx);
      pending.record.label = Label::kValid;
      pending.record.status = TxStatus::kCheckedValid;
      pending.id = id;
      break;
    }
    case ScreeningKind::kDiscardedInvalid:
      break;  // checked invalid: never enters a block
    case ScreeningKind::kRecordedUnchecked: {
      argues_.record_unchecked(agg.tx, id, std::move(agg.reports));
      PendingRecord& pending = screen_batch_.emplace_back();
      pending.record.tx = std::move(agg.tx);
      pending.record.label = Label::kInvalid;
      pending.record.status = TxStatus::kUncheckedInvalid;
      pending.id = id;
      break;
    }
  }
  aggregations_.erase(it);
}

}  // namespace repchain::protocol
