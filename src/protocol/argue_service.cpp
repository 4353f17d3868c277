#include "protocol/argue_service.hpp"

namespace repchain::protocol {

using ledger::Label;
using ledger::TxStatus;

void ArgueService::record_unchecked(const ledger::Transaction& tx,
                                    const ledger::TxId& id,
                                    std::vector<reputation::Report> reports) {
  UncheckedEntry entry;
  entry.tx = tx;
  entry.reports = std::move(reports);
  entry.truly_valid = oracle_.true_validity(id);  // metric only
  entry.expected_loss =
      table_.expected_loss_for(tx.provider, entry.reports, entry.truly_valid);
  metrics_.expected_loss += entry.expected_loss;
  if (entry.truly_valid) metrics_.realized_loss += 2.0;
  unchecked_.emplace(id, std::move(entry));
  unchecked_order_.push_back(id);
  argue_buffer_.record(tx.provider, id);
}

std::optional<ledger::TxRecord> ArgueService::handle_argue(const ArgueMsg& argue) {
  const ledger::TxId id = argue.tx.id();
  auto uit = unchecked_.find(id);
  if (uit == unchecked_.end() || uit->second.revealed) return std::nullopt;

  if (!argue_buffer_.consume(argue.provider, id)) {
    // Buried deeper than U: invalid permanently (§4.2).
    ++metrics_.argues_rejected_late;
    return std::nullopt;
  }
  ++metrics_.argues_accepted;

  // Re-evaluate: status <- validate(tx).
  ++metrics_.argue_validations;
  const bool truth = oracle_.validate(id);
  std::optional<ledger::TxRecord> appended;
  if (truth) {
    ledger::TxRecord rec;
    rec.tx = argue.tx;
    rec.label = Label::kValid;
    rec.status = TxStatus::kArguedValid;
    appended = std::move(rec);
  }
  apply_reveal(uit->second, truth);
  return appended;
}

void ArgueService::apply_reveal(UncheckedEntry& entry, bool truth) {
  entry.revealed = true;
  if (truth) ++metrics_.mistakes;
  // Algorithm 3 case 3 with the screening-time report snapshot.
  (void)table_.update_revealed(entry.tx.provider, entry.reports, truth);
}

bool ArgueService::reveal(const ledger::TxId& id) {
  auto it = unchecked_.find(id);
  if (it == unchecked_.end() || it->second.revealed) return false;
  apply_reveal(it->second, oracle_.true_validity(id));
  return true;
}

std::vector<const UncheckedEntry*> ArgueService::entries_in_order() const {
  std::vector<const UncheckedEntry*> out;
  out.reserve(unchecked_order_.size());
  for (const auto& id : unchecked_order_) {
    const auto it = unchecked_.find(id);
    if (it != unchecked_.end()) out.push_back(&it->second);
  }
  return out;
}

void ArgueService::restore_entries(std::vector<UncheckedEntry> entries) {
  reset_transient();
  for (auto& entry : entries) {
    const ledger::TxId id = entry.tx.id();
    const ProviderId provider = entry.tx.provider;
    const bool revealed = entry.revealed;
    unchecked_.emplace(id, std::move(entry));
    unchecked_order_.push_back(id);
    // Re-record every entry so per-provider burial depths match the
    // screening order, then consume the revealed ones (an argue or reveal
    // had already closed their windows before the checkpoint).
    argue_buffer_.record(provider, id);
    if (revealed) (void)argue_buffer_.consume(provider, id);
  }
}

std::vector<ledger::TxId> ArgueService::unrevealed() const {
  std::vector<ledger::TxId> out;
  for (const auto& id : unchecked_order_) {
    const auto it = unchecked_.find(id);
    if (it != unchecked_.end() && !it->second.revealed) out.push_back(id);
  }
  return out;
}

}  // namespace repchain::protocol
