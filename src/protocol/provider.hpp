#pragma once

#include <unordered_map>

#include "crypto/ed25519.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/block.hpp"
#include "ledger/chain.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/directory.hpp"
#include "protocol/messages.hpp"
#include "protocol/round_timing.hpp"
#include "runtime/atomic_broadcast.hpp"
#include "runtime/delivery.hpp"
#include "runtime/node_context.hpp"

namespace repchain::protocol {

/// A provider node (tier 1): signs transactions with the current timestamp
/// and atomically broadcasts them to its r linked collectors (§3.2). An
/// *active* provider also retrieves every block and argues whenever one of
/// its valid transactions was recorded invalid-and-unchecked (§3.1,
/// Validity).
class Provider {
 public:
  /// `reliable_delivery` selects the node's runtime::Delivery mode for its
  /// submissions, block requests and argues.
  Provider(ProviderId id, runtime::NodeContext& ctx, crypto::SigningKey key,
           const identity::IdentityManager& im, ledger::ValidationOracle& oracle,
           const Directory& directory, bool active, bool reliable_delivery = false);

  /// Collecting phase: create, register, sign and broadcast one transaction.
  /// `truly_valid` is the hidden application-level ground truth.
  const ledger::Transaction& submit(Bytes payload, bool truly_valid);

  /// Directed submission to one explicit collector node instead of the
  /// linked-collector broadcast. The sharded workload uses this to aim
  /// transactions at a *foreign* committee's collector, exercising the
  /// cross-shard reject path; the double-spend knob does not apply here.
  const ledger::Transaction& submit_to(NodeId collector, Bytes payload,
                                       bool truly_valid);

  /// Self-driving rounds: schedule this provider's sync at the round's
  /// block-propagation deadline.
  void arm_round(SimTime t0, const RoundTiming& timing);

  /// Light-client sync: request the next missing block from a governor
  /// (round-robin); responses chain further requests until the provider has
  /// caught up with the chain head. Each appended block is verified locally
  /// (leader signature, serial continuity, hash link, tx root) and scanned
  /// for own transactions (argue on wrongly-buried ones).
  void sync();

  /// Network delivery entry point (kBlockResponse messages).
  void on_message(const runtime::Message& msg);

  /// Process one retrieved block (also called internally by sync).
  void on_block(const ledger::Block& block);

  /// The provider's own verified replica of the chain.
  [[nodiscard]] const ledger::ChainStore& chain() const { return chain_; }

  [[nodiscard]] ProviderId id() const { return id_; }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] const crypto::PublicKey& public_key() const { return key_.public_key(); }

  /// Adversary layer: with probability `p` per submission, sign a second
  /// transaction reusing the same sequence number and send each twin to a
  /// disjoint half of the linked collectors (a double-spend). p = 0 restores
  /// honesty and leaves the rng stream untouched (no extra draws).
  void set_double_spend(double p) { double_spend_p_ = p; }
  [[nodiscard]] std::uint64_t double_spends_submitted() const {
    return double_spends_submitted_;
  }

  [[nodiscard]] std::uint64_t submitted() const { return next_seq_; }
  [[nodiscard]] std::uint64_t argued() const { return argued_; }
  [[nodiscard]] std::uint64_t blocks_synced() const { return chain_.height(); }
  [[nodiscard]] std::uint64_t rejected_blocks() const { return rejected_blocks_; }
  [[nodiscard]] std::uint64_t sync_timeouts() const { return sync_timeouts_; }
  /// Own valid transactions observed in a block with a valid/argued status.
  [[nodiscard]] std::uint64_t confirmed_valid() const { return confirmed_valid_; }

  /// Transport reconnect notification: refresh the reliable channel's retry
  /// budget for `peer` (no-op in atomic mode).
  void on_peer_reconnected(NodeId peer) { out_.on_peer_reconnect(peer); }

 private:
  void request_block(BlockSerial serial);

  ProviderId id_;
  runtime::NodeContext& ctx_;
  NodeId node_;
  crypto::SigningKey key_;
  const identity::IdentityManager& im_;
  ledger::ValidationOracle& oracle_;
  const Directory& directory_;
  bool active_;

  runtime::AtomicBroadcastGroup collector_group_;
  runtime::Delivery out_;  // after collector_group_, which it broadcasts to
  std::vector<NodeId> governor_nodes_;

  ledger::ChainStore chain_;
  bool sync_in_flight_ = false;
  std::uint64_t sync_nonce_ = 0;  // guards the per-request timeout timers
  std::uint64_t rejected_blocks_ = 0;
  std::uint64_t sync_timeouts_ = 0;

  std::uint64_t next_seq_ = 0;
  std::uint64_t argued_ = 0;
  std::uint64_t confirmed_valid_ = 0;

  // Adversary layer (set_double_spend).
  double double_spend_p_ = 0.0;
  std::uint64_t double_spends_submitted_ = 0;

  struct OwnTx {
    ledger::Transaction tx;
    bool valid = false;
    bool argued = false;
    bool confirmed = false;
  };
  std::unordered_map<ledger::TxId, OwnTx, ledger::TxIdHash> own_;
};

}  // namespace repchain::protocol
