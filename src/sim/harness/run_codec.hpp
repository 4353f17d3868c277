#pragma once

// Canonical encoding of a finished run's observable outcome. The cluster
// driver byte-compares encode_run_result(simulated) against
// encode_run_result(socket replay) — equality of these buffers is the
// "byte-identical run summary" acceptance check. Doubles are encoded as
// their IEEE-754 bit patterns (and rendered as hexfloats), so the compare
// has no tolerance: a single ULP of drift anywhere fails it.

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::sim {

class GovernorLink;

/// Everything a run reports: the aggregate summary, the per-round time
/// series, and the reward/leadership tallies.
struct RunResult {
  ScenarioSummary summary;
  std::vector<RoundRecord> history;
  std::vector<double> rewards;
  std::vector<std::uint64_t> leader_counts;
};

[[nodiscard]] Bytes encode_run_result(const RunResult& r);

/// Run `config` to completion and collect its RunResult: in process (the
/// reference side of the socket-vs-simulated compare), or with the governors
/// behind a `remote` link (the lockstep cluster run).
[[nodiscard]] RunResult simulate_run(ScenarioConfig config,
                                     GovernorLink* remote = nullptr);

/// Human-readable rendering (one field per line, doubles as hexfloats) for
/// the socket-vs-simulated diff artifact uploaded on a failed compare.
[[nodiscard]] std::string render_run_result(const RunResult& r);

}  // namespace repchain::sim
