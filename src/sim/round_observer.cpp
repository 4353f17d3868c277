#include "sim/round_observer.hpp"

namespace repchain::sim {

void RoundObserver::on_event(const runtime::TraceEvent& ev) {
  // Stall events are a global liveness signal: count them from every node,
  // before the watched filter.
  if (ev.kind == runtime::TraceKind::kRoundStalled) ++stalled_events_;
  if (ev.kind == runtime::TraceKind::kByzantineEvidence) ++byzantine_evidence_;
  // Cross-shard rejects are a global tally too; collectors do not track
  // rounds, so the event must not open a (round 0) entry below.
  if (ev.kind == runtime::TraceKind::kCrossShardRejected) {
    ++cross_shard_rejected_;
    return;
  }
  // Transport-plane events (reliable-delivery exhaustion, keepalive death)
  // are global tallies as well: they carry no protocol round, so they must
  // not open a (round 0) entry below.
  if (ev.kind == runtime::TraceKind::kDeliveryFailed) {
    ++delivery_failures_;
    return;
  }
  if (ev.kind == runtime::TraceKind::kPeerDead) {
    ++dead_peer_events_;
    return;
  }
  if (watched_ && ev.node != *watched_) return;
  switch (ev.kind) {
    case runtime::TraceKind::kLeaderElected:
      rounds_[ev.round].leader = GovernorId(static_cast<std::uint32_t>(ev.arg0));
      break;
    case runtime::TraceKind::kBlockCommitted:
      rounds_[ev.round].block_txs = static_cast<std::size_t>(ev.arg1);
      rounds_[ev.round].commit_at = ev.at;
      break;
    default:
      // Round markers (started/ended/audit) carry no payload to collect, but
      // they still open the round entry so rounds_seen() counts them.
      rounds_.try_emplace(ev.round);
      break;
  }
}

std::optional<GovernorId> RoundObserver::leader(Round round) const {
  const auto it = rounds_.find(round);
  return it == rounds_.end() ? std::nullopt : it->second.leader;
}

std::size_t RoundObserver::block_txs(Round round) const {
  const auto it = rounds_.find(round);
  return it == rounds_.end() ? 0 : it->second.block_txs;
}

std::optional<SimTime> RoundObserver::commit_at(Round round) const {
  const auto it = rounds_.find(round);
  return it == rounds_.end() ? std::nullopt : it->second.commit_at;
}

}  // namespace repchain::sim
