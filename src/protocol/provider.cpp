#include "protocol/provider.hpp"

#include "common/errors.hpp"

namespace repchain::protocol {

Provider::Provider(ProviderId id, runtime::NodeContext& ctx, crypto::SigningKey key,
                   const identity::IdentityManager& im,
                   ledger::ValidationOracle& oracle, const Directory& directory,
                   bool active, bool reliable_delivery)
    : id_(id),
      ctx_(ctx),
      node_(ctx.node()),
      key_(std::move(key)),
      im_(im),
      oracle_(oracle),
      directory_(directory),
      active_(active),
      collector_group_(ctx.transport(), directory.collector_nodes_of(id)),
      out_(ctx, collector_group_, reliable_delivery, /*epoch=*/0,
           [this](const runtime::Message& m) { on_message(m); }),
      governor_nodes_(directory.governor_nodes()) {}

const ledger::Transaction& Provider::submit(Bytes payload, bool truly_valid) {
  const ledger::Transaction tx = ledger::make_transaction(
      id_, next_seq_++, ctx_.now(), std::move(payload), key_);
  const ledger::TxId tx_id = tx.id();
  oracle_.register_tx(tx_id, truly_valid);

  auto [it, inserted] = own_.emplace(tx_id, OwnTx{tx, truly_valid, false, false});

  if (double_spend_p_ > 0.0 && ctx_.rng().bernoulli(double_spend_p_)) {
    // Double-spend: a second provider-signed transaction reusing this
    // sequence number (tweaked payload, so a distinct TxId), each twin sent
    // to a disjoint half of the linked collectors. A Byzantine provider
    // steps outside the atomic-broadcast primitive, like an equivocating
    // collector does.
    Bytes twin_payload = it->second.tx.payload;
    if (twin_payload.empty()) {
      twin_payload.push_back(0xA5);
    } else {
      twin_payload[0] ^= 0xA5;
    }
    const ledger::Transaction twin = ledger::make_transaction(
        id_, tx.seq, ctx_.now(), std::move(twin_payload), key_);
    oracle_.register_tx(twin.id(), truly_valid);
    ++double_spends_submitted_;
    const auto collectors = directory_.collector_nodes_of(id_);
    const Bytes enc_a = it->second.tx.encode();
    const Bytes enc_b = twin.encode();
    const std::size_t first_half = collectors.size() / 2 + collectors.size() % 2;
    for (std::size_t i = 0; i < collectors.size(); ++i) {
      out_.send(collectors[i], runtime::MsgKind::kProviderTx,
                i < first_half ? enc_a : enc_b);
    }
    return it->second.tx;
  }

  // broadcast_provider(tx) to the r linked collectors.
  out_.broadcast(runtime::MsgKind::kProviderTx, tx.encode());
  return it->second.tx;
}

const ledger::Transaction& Provider::submit_to(NodeId collector, Bytes payload,
                                               bool truly_valid) {
  const ledger::Transaction tx = ledger::make_transaction(
      id_, next_seq_++, ctx_.now(), std::move(payload), key_);
  const ledger::TxId tx_id = tx.id();
  oracle_.register_tx(tx_id, truly_valid);
  auto [it, inserted] = own_.emplace(tx_id, OwnTx{tx, truly_valid, false, false});
  out_.send(collector, runtime::MsgKind::kProviderTx, it->second.tx.encode());
  return it->second.tx;
}

void Provider::arm_round(SimTime t0, const RoundTiming& timing) {
  // Passive providers still replicate the chain; active_ only gates arguing
  // (checked inside the sync path).
  ctx_.timers().schedule_at(t0 + timing.sync_offset, [this] { sync(); });
}

void Provider::request_block(BlockSerial serial) {
  // Round-robin over governors so retrieval load spreads.
  const NodeId gov = governor_nodes_[serial % governor_nodes_.size()];
  BlockRequestMsg req;
  req.serial = serial;
  const std::uint64_t nonce = ++sync_nonce_;
  out_.send(gov, runtime::MsgKind::kBlockRequest, req.encode());
  // A lost request or response must not wedge the sync flag until the next
  // round's sync() re-arm: give up on this attempt after a grace window
  // unless a newer request superseded it.
  ctx_.timers().schedule_after(8 * ctx_.delta(), [this, nonce] {
    if (!sync_in_flight_ || nonce != sync_nonce_) return;
    ++sync_timeouts_;
    sync_in_flight_ = false;
  });
}

void Provider::sync() {
  if (sync_in_flight_) return;
  sync_in_flight_ = true;
  request_block(chain_.height() + 1);
}

void Provider::on_message(const runtime::Message& msg) {
  if (out_.on_message(msg)) return;
  if (msg.kind != runtime::MsgKind::kBlockResponse) return;
  BlockResponseMsg resp;
  try {
    resp = BlockResponseMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (!sync_in_flight_) return;
  if (resp.serial != chain_.height() + 1) return;  // stale response

  if (!resp.found) {
    // Caught up with the chain head.
    sync_in_flight_ = false;
    return;
  }

  ledger::Block block;
  try {
    block = ledger::Block::decode(resp.block);
  } catch (const DecodeError&) {
    ++rejected_blocks_;
    sync_in_flight_ = false;
    return;
  }

  // Light-client verification: the proposer must be an enrolled governor and
  // the signature must authenticate; ChainStore::append enforces serial
  // continuity, the hash link and the tx-root commitment.
  const auto leader_node = directory_.find_node(block.leader);
  if (!leader_node || !im_.authorize(*leader_node, identity::Role::kGovernor,
                                     block.signed_preimage(), block.leader_sig)) {
    ++rejected_blocks_;
    sync_in_flight_ = false;
    return;
  }
  try {
    chain_.append(block);
  } catch (const ProtocolError&) {
    ++rejected_blocks_;
    sync_in_flight_ = false;
    return;
  }

  on_block(chain_.head());
  // Chain the next request until the governor reports not-found.
  request_block(chain_.height() + 1);
}

void Provider::on_block(const ledger::Block& block) {
  for (const auto& rec : block.txs) {
    if (rec.tx.provider != id_) continue;
    const auto it = own_.find(rec.tx.id());
    if (it == own_.end()) continue;
    OwnTx& own = it->second;

    if (rec.status == ledger::TxStatus::kCheckedValid ||
        rec.status == ledger::TxStatus::kArguedValid) {
      if (!own.confirmed) {
        own.confirmed = true;
        ++confirmed_valid_;
      }
      continue;
    }

    // (tx, invalid, unchecked): an active provider who knows the transaction
    // is valid invokes argue(tx, s).
    if (active_ && own.valid && !own.argued) {
      own.argued = true;
      ++argued_;
      const ArgueMsg msg = make_argue(id_, own.tx, block.serial, key_);
      out_.multicast(governor_nodes_, runtime::MsgKind::kArgue, msg.encode());
    }
  }
}

}  // namespace repchain::protocol
