#include "sim/harness/workload.hpp"

#include "sim/harness/system_model.hpp"
#include "sim/harness/wiring.hpp"

namespace repchain::sim {

std::vector<TxDraw> draw_workload(const ScenarioConfig& config, const Rng& rng,
                                  Round round, const protocol::ShardRouter& router,
                                  const protocol::Directory& directory) {
  Rng workload = rng.derive(salt::workload(round));
  // cross_shard_probability == 0 must not touch the workload stream at all
  // (no gating draw), so classic runs replay byte-identically.
  const bool cross_enabled = config.cross_shard_probability > 0.0;
  std::vector<TxDraw> draws;
  draws.reserve(config.topology.providers * config.txs_per_provider_per_round);
  for (std::size_t p = 0; p < config.topology.providers; ++p) {
    for (std::size_t t = 0; t < config.txs_per_provider_per_round; ++t) {
      TxDraw d{.provider = p,
               .valid = workload.bernoulli(config.p_valid),
               .payload = workload.bytes(24),
               .foreign = {}};
      if (cross_enabled && workload.bernoulli(config.cross_shard_probability)) {
        const ShardId home = router.shard_of(ProviderId(static_cast<std::uint32_t>(p)));
        std::vector<CollectorId> foreign;
        for (const CollectorId c : directory.collectors()) {
          if (router.shard_of(c) != home) foreign.push_back(c);
        }
        d.foreign = foreign[workload.uniform(foreign.size())];
      }
      draws.push_back(std::move(d));
    }
  }
  return draws;
}

void submit_draw(protocol::Provider& provider, const protocol::Directory& directory,
                 TxDraw&& draw) {
  if (draw.foreign) {
    (void)provider.submit_to(directory.node_of(*draw.foreign), std::move(draw.payload),
                             draw.valid);
  } else {
    (void)provider.submit(std::move(draw.payload), draw.valid);
  }
}

void inject_workload(Wiring& wiring, runtime::EventLoop& queue, Round round) {
  for (TxDraw& d : draw_workload(wiring.config_, wiring.rng_, round, wiring.router_,
                                 wiring.directory_)) {
    submit_draw(wiring.providers_[d.provider], wiring.directory_, std::move(d));
    // Spread submissions a little so aggregation windows interleave.
    queue.run_until(queue.now() + 1 * kMillisecond);
  }
}

void run_audit(Wiring& wiring, Round round) {
  // One shared stream consumed in governor order keeps the draw sequence
  // deterministic.
  Rng audit = wiring.rng_.derive(salt::audit(round));
  GovernorLink& link = *wiring.link_;
  for (std::size_t i = 0; i < wiring.governors_.size(); ++i) {
    const std::optional<GovernorState> state = link.state(i);
    if (!state) continue;
    for (const ledger::TxId& id : state->unrevealed) {
      if (audit.bernoulli(wiring.config_.audit_probability)) link.reveal(i, id);
    }
  }
}

}  // namespace repchain::sim
