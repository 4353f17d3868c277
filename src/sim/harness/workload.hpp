#pragma once

// Harness layer: provider traffic and out-of-band audits. Workload draws
// each round's injected transactions and truth reveals from their own child
// streams (salt::workload / salt::audit in system_model.hpp).

#include "common/rng.hpp"
#include "runtime/event_loop.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::sim {

struct Wiring;

class Workload {
 public:
  Workload(const ScenarioConfig& config, const Rng& rng, runtime::EventLoop& queue,
           Wiring& wiring)
      : config_(config), rng_(rng), queue_(queue), wiring_(wiring) {}

  /// Collecting-phase traffic: every provider submits its per-round quota,
  /// spread a little so aggregation windows interleave (runs the clock).
  void inject(Round round);

  /// Remaining unrevealed unchecked truths surface through "other evidence".
  void run_audit(Round round);

 private:
  const ScenarioConfig& config_;
  Rng rng_;
  runtime::EventLoop& queue_;
  Wiring& wiring_;
};

}  // namespace repchain::sim
