#include "protocol/collector.hpp"

#include "common/errors.hpp"
#include "wire/protocol_error.hpp"

namespace repchain::protocol {

using ledger::Label;

Collector::Collector(CollectorId id, runtime::NodeContext& ctx, crypto::SigningKey key,
                     const identity::IdentityManager& im,
                     ledger::ValidationOracle& oracle, const Directory& directory,
                     runtime::Broadcaster& upload_group,
                     CollectorBehavior behavior, bool reliable_delivery)
    : id_(id),
      ctx_(ctx),
      node_(ctx.node()),
      key_(std::move(key)),
      im_(im),
      oracle_(oracle),
      directory_(directory),
      out_(ctx, upload_group, reliable_delivery, /*epoch=*/0,
           [this](const runtime::Message& m) { on_message(m); }),
      behavior_(behavior) {}

void Collector::on_message(const runtime::Message& msg) {
  if (out_.on_message(msg)) return;
  if (msg.kind != runtime::MsgKind::kProviderTx) return;
  ledger::Transaction tx;
  try {
    tx = ledger::Transaction::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  ++stats_.received;

  // Committee membership (sharded deployments only): a tx whose provider
  // lives in another committee is unroutable here — refuse it with the
  // explicit cross-shard code rather than silently dropping it.
  if (same_shard_ && !same_shard_(tx.provider)) {
    ++stats_.rejected_cross_shard;
    runtime::TraceEvent ev;
    ev.kind = runtime::TraceKind::kCrossShardRejected;
    ev.node = node_;
    ev.arg0 = tx.provider.value();
    ev.arg1 = static_cast<std::uint64_t>(wire::ProtocolError::kCrossShardTx);
    ev.at = ctx_.now();
    ctx_.emit(ev);
    return;
  }

  // verify(p_k, tx): authenticated provider signature from a linked provider.
  if (!directory_.linked(tx.provider, id_)) return;
  const NodeId provider_node = directory_.node_of(tx.provider);
  if (!im_.authenticate(provider_node, tx.signed_preimage(), tx.provider_sig)) {
    ++stats_.rejected_bad_signature;
    return;  // simply discard (Algorithm 1)
  }

  Rng& rng = ctx_.rng();
  // Concealment.
  if (rng.bernoulli(behavior_.drop_probability)) {
    ++stats_.dropped;
  } else {
    // validate(tx) from the collector's seat: a noisy observation of the
    // application-level ground truth.
    Label label = oracle_.observe(tx.id(), behavior_.accuracy, rng);
    double flip = behavior_.flip_probability;
    for (const auto& [provider, probability] : behavior_.flip_by_provider) {
      if (provider == tx.provider.value()) {
        flip = probability;
        break;
      }
    }
    if (rng.bernoulli(flip)) label = ledger::opposite(label);
    upload(tx, label);
  }

  // Forgery attempt: fabricate a transaction "from" the same provider. The
  // bogus signature is rejected by governors except with negligible
  // probability (Almost No Creation).
  if (rng.bernoulli(behavior_.forge_probability)) {
    upload_forgery(tx.provider);
  }
}

void Collector::upload(const ledger::Transaction& tx, Label label) {
  ++stats_.uploaded;
  if (!behavior_.equivocate) {
    const ledger::LabeledTransaction ltx = ledger::make_labeled(tx, label, id_, key_);
    out_.broadcast(runtime::MsgKind::kCollectorUpload, ltx.encode());
    return;
  }
  // Equivocation: a Byzantine collector bypasses the atomic broadcast and
  // sends alternating labels to individual governors.
  ++stats_.equivocated;
  const auto governors = directory_.governor_nodes();
  for (std::size_t i = 0; i < governors.size(); ++i) {
    const Label sent = (i % 2 == 0) ? label : ledger::opposite(label);
    const ledger::LabeledTransaction ltx = ledger::make_labeled(tx, sent, id_, key_);
    ctx_.transport().send(node_, governors[i], runtime::MsgKind::kCollectorUpload,
                          ltx.encode());
  }
}

void Collector::upload_forgery(ProviderId provider) {
  ++stats_.forged;
  Rng& rng = ctx_.rng();
  ledger::Transaction fake;
  fake.provider = provider;
  fake.seq = forge_seq_++;
  fake.timestamp = ctx_.now();
  fake.payload = rng.bytes(16);
  // A forged provider signature: without the provider's secret key the best
  // a malicious collector can do is guess.
  Bytes garbage = rng.bytes(64);
  std::copy(garbage.begin(), garbage.end(), fake.provider_sig.bytes.begin());

  const ledger::LabeledTransaction ltx =
      ledger::make_labeled(fake, Label::kValid, id_, key_);
  out_.broadcast(runtime::MsgKind::kCollectorUpload, ltx.encode());
}

}  // namespace repchain::protocol
