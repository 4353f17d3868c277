#pragma once

// Harness layer: provider traffic and out-of-band audits. Each round's
// injected transactions and truth reveals are drawn from their own child
// streams (salt::workload / salt::audit in system_model.hpp).

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "protocol/directory.hpp"
#include "protocol/provider.hpp"
#include "protocol/shard_router.hpp"
#include "runtime/event_loop.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::sim {

struct Wiring;

/// One transaction of a round's workload, as drawn.
struct TxDraw {
  std::size_t provider = 0;
  bool valid = false;
  Bytes payload;
  /// Cross-shard routing only: the foreign-committee collector the signed
  /// transaction is misrouted to (which must refuse it).
  std::optional<CollectorId> foreign;
};

/// Round `round`'s workload, provider-major in submission order, drawn from
/// the scenario stream `rng`'s salt::workload child. Every host that injects
/// traffic takes its draws from here, so a cluster observer submits the
/// transactions the simulation does.
[[nodiscard]] std::vector<TxDraw> draw_workload(const ScenarioConfig& config,
                                                const Rng& rng, Round round,
                                                const protocol::ShardRouter& router,
                                                const protocol::Directory& directory);

/// Submit `draw` from `provider` (to the foreign collector when it has one).
void submit_draw(protocol::Provider& provider, const protocol::Directory& directory,
                 TxDraw&& draw);

/// Collecting-phase traffic: every provider submits its per-round quota,
/// spread a little so aggregation windows interleave (runs the clock).
void inject_workload(Wiring& wiring, runtime::EventLoop& queue, Round round);

/// Remaining unrevealed unchecked truths surface through "other evidence".
void run_audit(Wiring& wiring, Round round);

}  // namespace repchain::sim
