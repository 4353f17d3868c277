#include "sim/harness/workload.hpp"

#include "sim/harness/system_model.hpp"
#include "sim/harness/wiring.hpp"

namespace repchain::sim {

void Workload::inject(Round round) {
  Rng workload = rng_.derive(salt::workload(round));
  // cross_shard_probability == 0 must not touch the workload stream at all
  // (no gating draw), so classic runs replay byte-identically.
  const bool cross_enabled = config_.cross_shard_probability > 0.0;
  for (auto& p : wiring_.providers_) {
    for (std::size_t t = 0; t < config_.txs_per_provider_per_round; ++t) {
      const bool valid = workload.bernoulli(config_.p_valid);
      Bytes payload = workload.bytes(24);
      if (cross_enabled && workload.bernoulli(config_.cross_shard_probability)) {
        // Misrouted traffic: aim the signed transaction at a collector in a
        // *foreign* committee, which must refuse it with the cross-shard
        // code rather than uploading it.
        const ShardId home = wiring_.router_.shard_of(p.id());
        std::vector<CollectorId> foreign;
        for (const CollectorId c : wiring_.directory_.collectors()) {
          if (wiring_.router_.shard_of(c) != home) foreign.push_back(c);
        }
        const CollectorId target = foreign[workload.uniform(foreign.size())];
        (void)p.submit_to(wiring_.directory_.node_of(target), std::move(payload),
                          valid);
      } else {
        (void)p.submit(std::move(payload), valid);
      }
      // Spread submissions a little so aggregation windows interleave.
      queue_.run_until(queue_.now() + 1 * kMillisecond);
    }
  }
}

void Workload::run_audit(Round round) {
  // One shared stream consumed in governor order keeps the draw sequence
  // deterministic.
  Rng audit = rng_.derive(salt::audit(round));
  for (auto& g : wiring_.governors_) {
    if (!g) continue;
    for (const auto& id : g->unrevealed_unchecked()) {
      if (audit.bernoulli(config_.audit_probability)) {
        (void)g->reveal_unchecked(id);
      }
    }
  }
}

}  // namespace repchain::sim
