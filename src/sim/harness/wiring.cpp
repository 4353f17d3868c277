#include "sim/harness/wiring.hpp"

#include <string>

#include "sim/harness/fault_plan.hpp"
#include "sim/round_observer.hpp"
#include "storage/file_state_store.hpp"

namespace repchain::sim {
namespace {

/// The in-process GovernorLink: every operation runs on Wiring's governor
/// slot, and a dead (null) slot ignores it.
class LocalGovernors final : public GovernorLink {
 public:
  void bind(Wiring& wiring) override { wiring_ = &wiring; }

  void deliver(std::size_t i, const runtime::Message& msg) override {
    if (auto* g = at(i)) g->on_message(msg);
  }
  void arm_round(std::size_t i, Round round, SimTime t0) override {
    if (auto* g = at(i)) g->arm_round(round, t0, wiring_->timing_);
  }
  std::optional<GovernorState> state(std::size_t i) override {
    if (auto* g = at(i)) return read_governor_state(*g, 0);  // shared oracle
    return std::nullopt;
  }
  void reveal(std::size_t i, const ledger::TxId& id) override {
    if (auto* g = at(i)) (void)g->reveal_unchecked(id);
  }
  const ledger::ChainStore* snapshot(std::size_t i) override {
    auto* g = at(i);
    return g ? &g->chain() : nullptr;
  }

 private:
  [[nodiscard]] protocol::Governor* at(std::size_t i) {
    return wiring_->governors_[i].get();
  }

  Wiring* wiring_ = nullptr;
};

}  // namespace

Wiring::Wiring(ScenarioConfig& config, const Rng& rng, runtime::EventLoop& queue,
               RoundObserver& observer, GovernorLink* remote)
    : config_(config), rng_(rng) {
  net_ = std::make_unique<net::SimNetwork>(queue, rng_.derive(1), config_.latency);
  transport_ = net_.get();
  oracle_ = std::make_unique<ledger::ValidationOracle>(config_.validation_cost);

  const auto& topo = config_.topology;

  // The deterministic build material — keys, identities, directory, timing,
  // genesis stake, visibility views — derives purely from (config, rng); a
  // cluster node process rebuilds the identical model from the same inputs.
  SystemModel model = SystemModel::build(config_, rng_);
  im_ = std::move(model.im);
  directory_ = std::move(model.directory);
  router_ = std::move(model.router);
  shard_directories_ = std::move(model.shard_directories);
  shard_genesis_ = std::move(model.shard_genesis);
  timing_ = model.timing;
  genesis_ = std::move(model.genesis);
  governor_visible_ = std::move(model.governor_visible);
  std::vector<crypto::SigningKey> provider_keys = std::move(model.provider_keys);
  std::vector<crypto::SigningKey> collector_keys = std::move(model.collector_keys);
  std::vector<crypto::SigningKey> governor_keys = std::move(model.governor_keys);

  // Register the network node slots; SimNetwork assigns the same sequential
  // flat ids the model derived.
  const std::size_t total = topo.providers + topo.collectors + topo.governors;
  for (std::size_t i = 0; i < total; ++i) (void)net_->add_node();

  // Replaces transport_ with the decorator when faults are scheduled.
  faulty_ = FaultPlan::install_network_faults(config_, *net_, directory_, timing_,
                                              queue, rng_);
  if (faulty_) transport_ = faulty_.get();

  // One atomic-broadcast group per committee: collectors upload to (and
  // governors gossip within) their own shard's governors only. On classic
  // runs this is the single global governor group, same member list as ever.
  for (const auto& shard_dir : shard_directories_) {
    shard_groups_.push_back(std::make_unique<runtime::AtomicBroadcastGroup>(
        *transport_, shard_dir.governor_nodes()));
  }

  // Instantiate nodes behind their runtime contexts (deques keep references
  // stable while wiring handlers).
  for (std::size_t i = 0; i < topo.providers; ++i) {
    const ProviderId id(static_cast<std::uint32_t>(i));
    provider_ctxs_.emplace_back(directory_.node_of(id), *transport_,
                                rng_.derive(salt::provider(i)));
    providers_.emplace_back(id, provider_ctxs_.back(), std::move(provider_keys[i]),
                            *im_, *oracle_,
                            shard_directories_[router_.shard_of(id).value()],
                            config_.providers_active, config_.governor.reliable_delivery);
    net_->set_handler(directory_.node_of(id), [this, i](const net::Message& m) {
      providers_[i].on_message(m);
    });
  }
  for (std::size_t i = 0; i < topo.collectors; ++i) {
    const CollectorId id(static_cast<std::uint32_t>(i));
    const ShardId shard = router_.shard_of(id);
    const protocol::CollectorBehavior behavior =
        config_.behaviors.empty()
            ? protocol::CollectorBehavior::honest()
            : config_.behaviors[i % config_.behaviors.size()];
    // Sharded collectors get the trace sink (cross-shard rejects are round
    // observations); classic ones keep their sink-less context as before.
    collector_ctxs_.emplace_back(directory_.node_of(id), *transport_,
                                 rng_.derive(salt::collector(i)),
                                 config_.shard_count > 1
                                     ? static_cast<runtime::TraceSink*>(&observer)
                                     : nullptr);
    collector_baselines_.push_back(behavior);
    collectors_.emplace_back(id, collector_ctxs_.back(), std::move(collector_keys[i]),
                             *im_, *oracle_, shard_directories_[shard.value()],
                             *shard_groups_[shard.value()], behavior,
                             config_.governor.reliable_delivery);
    if (config_.shard_count > 1) {
      collectors_.back().set_shard_filter([this, shard](ProviderId p) {
        return router_.shard_of(p) == shard;
      });
    }
    net_->set_handler(directory_.node_of(id), [this, i](const net::Message& m) {
      collectors_[i].on_message(m);
    });
  }
  // Governors keep their rebuild material (key, visibility view, store) here
  // so a crashed one can be reconstructed in place.
  governor_keys_ = std::move(governor_keys);
  governor_byz_.assign(topo.governors, adversary::GovernorByzantine{});
  const bool durable = config_.durable_governors || !config_.crashes.empty();
  for (std::size_t i = 0; i < topo.governors; ++i) {
    const GovernorId id(static_cast<std::uint32_t>(i));
    if (durable) {
      if (config_.storage_dir.empty()) {
        governor_stores_.push_back(std::make_unique<storage::MemoryStateStore>());
      } else {
        governor_stores_.push_back(std::make_unique<storage::FileStateStore>(
            config_.storage_dir / ("gov" + std::to_string(i))));
      }
    }
    governor_ctxs_.emplace_back(directory_.node_of(id), *transport_,
                                rng_.derive(salt::governor(i)), &observer);
    governors_.emplace_back();
    governor_epochs_.push_back(0);
    if (remote == nullptr) make_governor(i);  // remote: slot stays null
    net_->set_handler(directory_.node_of(id), [this, i](const net::Message& m) {
      link_->deliver(i, m);
    });
  }
  if (remote == nullptr) local_ = std::make_unique<LocalGovernors>();
  link_ = remote != nullptr ? remote : local_.get();
  link_->bind(*this);
}

Wiring::~Wiring() = default;

void Wiring::make_governor(std::size_t i) {
  const GovernorId id(static_cast<std::uint32_t>(i));
  const ShardId shard = router_.shard_of(id);
  storage::NodeStateStore* store =
      governor_stores_.empty() ? nullptr : governor_stores_[i].get();
  protocol::GovernorConfig gc = config_.governor;
  gc.channel_epoch = governor_epochs_[i];
  governors_[i] = std::make_unique<protocol::Governor>(
      id, governor_ctxs_[i], governor_keys_[i], *im_, *oracle_,
      shard_directories_[shard.value()], *shard_groups_[shard.value()], gc,
      shard_genesis_[shard.value()], governor_visible_[i], store);
  if (governor_byz_[i].any()) governors_[i]->set_byzantine(governor_byz_[i]);
}

void Wiring::crash_governor(std::size_t i) {
  // Kill -9 equivalent: pending timer callbacks become no-ops, the object
  // (and with it every byte of in-memory state) is destroyed. The store —
  // owned here, like a disk outlives a process — stays.
  governor_ctxs_[i].revoke_timers();
  governors_[i].reset();
}

void Wiring::restart_governor(std::size_t i) {
  ++governor_epochs_[i];  // fresh ReliableChannel incarnation
  make_governor(i);
  governors_[i]->recover_from_store();
  governors_[i]->sync_chain();
}

GovernorStates Wiring::governor_states() {
  GovernorStates states;
  states.reserve(governors_.size());
  for (std::size_t i = 0; i < governors_.size(); ++i) states.push_back(link_->state(i));
  return states;
}

}  // namespace repchain::sim
