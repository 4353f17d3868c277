#include "sim/harness/observation.hpp"

#include "sim/harness/wiring.hpp"

namespace repchain::sim {
namespace {

const GovernorState* first_live(const GovernorStates& states) {
  for (const auto& s : states) {
    if (s) return &*s;
  }
  return nullptr;
}

}  // namespace

GovernorState read_governor_state(const protocol::Governor& governor,
                                  std::uint64_t validations) {
  GovernorState s;
  s.leader = governor.round_leader();
  s.expected_loss = governor.metrics().expected_loss;
  s.realized_loss = governor.metrics().realized_loss;
  s.mistakes = governor.metrics().mistakes;
  s.argues_accepted = governor.metrics().argues_accepted;
  s.validations = validations;
  const ledger::ChainStore& chain = governor.chain();
  s.head_serial = chain.height();
  s.head_hash = chain.head_hash();
  if (!chain.empty()) {
    for (const auto& rec : chain.head().txs) {
      if (rec.status != ledger::TxStatus::kUncheckedInvalid) ++s.head_valid_txs;
    }
  }
  s.shares = governor.revenue_shares();
  s.unrevealed = governor.unrevealed_unchecked();
  return s;
}

Observation::Counters Observation::count(const Wiring& wiring,
                                         const GovernorStates& states) {
  Counters c;
  c.validations = wiring.oracle_->validations();
  c.messages = wiring.net_->stats().messages_sent;
  if (const GovernorState* ref = first_live(states)) {
    c.ref_expected_loss = ref->expected_loss;
  }
  for (const auto& s : states) {
    if (!s) continue;
    c.validations += s->validations;
    c.argues += s->argues_accepted;
  }
  return c;
}

void Observation::begin_round(Round round, const Wiring& wiring,
                              const GovernorStates& states) {
  pending_ = RoundRecord{};
  pending_.round = round;
  before_ = count(wiring, states);
}

void Observation::end_round(const Wiring& wiring, const GovernorStates& states) {
  const Counters after = count(wiring, states);
  pending_.leader = observer_.leader(pending_.round);
  pending_.block_txs = observer_.block_txs(pending_.round);
  pending_.validations_delta = after.validations - before_.validations;
  pending_.messages_delta = after.messages - before_.messages;
  pending_.expected_loss_delta = after.ref_expected_loss - before_.ref_expected_loss;
  pending_.argues_delta = after.argues - before_.argues;
  history_.push_back(pending_);
  if (bounded_history_ != 0 && history_.size() > bounded_history_) {
    history_.erase(history_.begin(),
                   history_.end() - static_cast<std::ptrdiff_t>(bounded_history_));
  }
}

void Observation::sample_rewards(const ScenarioConfig& config,
                                 const GovernorStates& states) {
  // Track leadership and distribute rewards from the leader's reputation.
  const GovernorState* ref = first_live(states);
  if (ref == nullptr || !ref->leader) return;  // no leader known
  const std::size_t li = ref->leader->value();
  leader_counts_[li] += 1;
  const auto& leader = states[li];
  if (!leader) return;  // leader crashed mid-round
  if (leader->head_serial == 0) return;
  const double profit =
      config.reward_per_valid_tx * static_cast<double>(leader->head_valid_txs);
  if (profit > 0.0) {
    for (const auto& [c, share] : leader->shares) {
      rewards_[c.value()] += profit * share;
    }
  }
}

void Observation::record_anchors(const Wiring& wiring, const GovernorStates& states,
                                 Round round) {
  for (std::size_t s = 0; s < wiring.shard_directories_.size(); ++s) {
    const ShardId shard(static_cast<std::uint32_t>(s));
    const GovernorState* ref = nullptr;
    for (const GovernorId g : wiring.router_.governors_of(shard)) {
      if (states[g.value()]) {
        ref = &*states[g.value()];
        break;
      }
    }
    if (ref == nullptr) continue;  // whole committee dead right now
    const ledger::AnchorRecord rec{shard, round, ref->head_serial, ref->head_hash};
    if (const auto prev = beacon_.latest(shard)) {
      // A reference replica that changed to a lagging restartee must not
      // regress the beacon; skip this interval instead.
      if (rec.round <= prev->round || rec.head_serial < prev->head_serial) continue;
    }
    beacon_.append(rec);
  }
}

ScenarioSummary Observation::summarize(
    const Wiring& wiring, const std::vector<const ledger::ChainStore*>& chains,
    const GovernorStates& states) const {
  ScenarioSummary s;
  for (const auto& p : wiring.providers_) s.txs_submitted += p.submitted();
  s.stalled_events = observer_.stalled_events();
  s.byzantine_evidence = observer_.byzantine_evidence();
  s.validations_total = count(wiring, states).validations;
  s.network = wiring.net_->stats();

  // Currently-dead governors are excluded: the summary reflects the view of
  // the live replicas (agreement/audit over a null chain is meaningless).
  double exp_loss = 0.0, real_loss = 0.0;
  std::uint64_t mistakes = 0;
  std::size_t live = 0;
  for (const auto& g : states) {
    if (!g) continue;
    ++live;
    exp_loss += g->expected_loss;
    real_loss += g->realized_loss;
    mistakes += g->mistakes;
  }
  if (live > 0) {
    const double m = static_cast<double>(live);
    s.mean_governor_expected_loss = exp_loss / m;
    s.mean_governor_realized_loss = real_loss / m;
    s.mean_governor_mistakes =
        static_cast<std::uint64_t>(static_cast<double>(mistakes) / m);
  }

  // Agreement and audit are committee-local properties (different shards
  // legitimately hold different chains), each judged against the
  // committee's first live replica; the global flags are the conjunction
  // and the global tx/block totals the sum across committees. On a classic
  // run the single slice is the whole committee.
  const protocol::ShardRouter& router = wiring.router_;
  s.agreement = live > 0;
  s.chains_audit_ok = live > 0;
  s.anchors_ok = true;
  for (std::size_t i = 0; i < wiring.shard_directories_.size(); ++i) {
    const ShardId shard(static_cast<std::uint32_t>(i));
    ShardSummary sh;
    sh.shard = shard;
    sh.providers = router.providers_of(shard).size();
    sh.collectors = router.collectors_of(shard).size();
    sh.governors = router.governors_of(shard).size();
    sh.agreement = true;
    sh.chains_audit_ok = true;
    const ledger::ChainStore* ref = nullptr;
    for (const GovernorId g : router.governors_of(shard)) {
      const ledger::ChainStore* chain = chains[g.value()];
      if (chain == nullptr) continue;
      sh.chains_audit_ok = sh.chains_audit_ok && chain->audit();
      s.anchors_ok = s.anchors_ok && beacon_.verify(shard, *chain);
      if (ref == nullptr) {
        ref = chain;
        sh.blocks = chain->height();
        sh.chain_valid_txs = chain->count_status(ledger::TxStatus::kCheckedValid);
        sh.chain_unchecked_txs =
            chain->count_status(ledger::TxStatus::kUncheckedInvalid);
        sh.chain_argued_txs = chain->count_status(ledger::TxStatus::kArguedValid);
      } else {
        sh.agreement =
            sh.agreement && ledger::ChainStore::same_prefix(*ref, *chain);
      }
    }
    s.blocks += sh.blocks;
    s.chain_valid_txs += sh.chain_valid_txs;
    s.chain_unchecked_txs += sh.chain_unchecked_txs;
    s.chain_argued_txs += sh.chain_argued_txs;
    s.agreement = s.agreement && sh.agreement;
    s.chains_audit_ok = s.chains_audit_ok && sh.chains_audit_ok;
    s.shards.push_back(sh);
  }
  for (const auto& c : wiring.collectors_) {
    s.cross_shard_rejected += c.stats().rejected_cross_shard;
  }
  s.anchors_recorded = beacon_.size();
  return s;
}

}  // namespace repchain::sim
