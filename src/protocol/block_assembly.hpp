#pragma once

#include <unordered_set>
#include <vector>

#include "crypto/ed25519.hpp"
#include "ledger/chain.hpp"

namespace repchain::protocol {

/// A screened record with its transaction id, hashed once at intake so the
/// assembler's reconciliation never re-hashes its pending list.
struct PendingRecord {
  ledger::TxRecord record;
  ledger::TxId id{};
};

/// The leader-side TXList of §3.1: accumulates screened records, packs up to
/// b_limit of them into a signed block on top of the local chain head, and
/// reconciles the pending list against accepted blocks so records are packed
/// exactly once. Pure ledger logic — no networking, so it unit-tests in
/// isolation and is shared by the Governor facade.
class BlockAssembler {
 public:
  /// Queue one screened record for a future block (FIFO).
  void add_pending(ledger::TxRecord record) {
    const ledger::TxId id = record.tx.id();
    pending_.push_back(PendingRecord{std::move(record), id});
  }

  /// Bulk intake for records that already cleared verification upstream
  /// (the VerifiedBatch-settled upload pipeline plus the screening draw):
  /// the assembler trusts its callers and re-checks nothing, so a batch is
  /// one reserve plus element moves. The caller keeps the cleared vector —
  /// and its capacity — as a reusable arena.
  void add_pending_batch(std::vector<PendingRecord>& records) {
    pending_.reserve(pending_.size() + records.size());
    for (auto& rec : records) pending_.push_back(std::move(rec));
    records.clear();
  }

  /// Pack up to `block_limit` pending records into a block extending `chain`,
  /// signed by `leader`. Does not consume pending_ — reconciliation against
  /// the accepted copy does (the proposal could be lost).
  [[nodiscard]] ledger::Block propose(const ledger::ChainStore& chain, Round round,
                                      GovernorId leader, std::size_t block_limit,
                                      const crypto::SigningKey& key) const;

  /// An accepted block arrived: remember its transactions as packed and drop
  /// them from the pending list.
  void reconcile(const ledger::Block& accepted);

  /// Byzantine defense: remove a queued record before it is ever proposed
  /// (double-spend twins are withdrawn from both replicas' pending lists so
  /// neither spend can reach a block). No-op if `id` is not pending.
  void drop_pending(const ledger::TxId& id);

  /// True iff the transaction is already part of an accepted block.
  [[nodiscard]] bool packed(const ledger::TxId& id) const {
    return packed_.contains(id);
  }

  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

  /// Restore path: rebuild the packed index from a chain and drop all
  /// transient pending records.
  void reset_from_chain(const ledger::ChainStore& chain);

 private:
  std::vector<PendingRecord> pending_;
  std::unordered_set<ledger::TxId, ledger::TxIdHash> packed_;  // already in a block
};

}  // namespace repchain::protocol
