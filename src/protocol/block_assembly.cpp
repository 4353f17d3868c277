#include "protocol/block_assembly.hpp"

#include <algorithm>

namespace repchain::protocol {

ledger::Block BlockAssembler::propose(const ledger::ChainStore& chain, Round round,
                                      GovernorId leader, std::size_t block_limit,
                                      const crypto::SigningKey& key) const {
  std::vector<ledger::TxRecord> txs;
  const std::size_t take = std::min(pending_.size(), block_limit);
  txs.reserve(take);
  for (std::size_t i = 0; i < take; ++i) txs.push_back(pending_[i].record);
  return ledger::make_block(chain.height() + 1, round, chain.head_hash(), leader,
                            std::move(txs), key);
}

void BlockAssembler::reconcile(const ledger::Block& accepted) {
  for (const auto& rec : accepted.txs) packed_.insert(rec.tx.id());
  std::erase_if(pending_,
                [this](const PendingRecord& rec) { return packed_.contains(rec.id); });
}

void BlockAssembler::drop_pending(const ledger::TxId& id) {
  std::erase_if(pending_, [&id](const PendingRecord& rec) { return rec.id == id; });
}

void BlockAssembler::reset_from_chain(const ledger::ChainStore& chain) {
  pending_.clear();
  packed_.clear();
  for (const auto& block : chain.blocks()) {
    for (const auto& rec : block.txs) packed_.insert(rec.tx.id());
  }
}

}  // namespace repchain::protocol
