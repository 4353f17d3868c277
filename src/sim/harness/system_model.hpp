#pragma once

// The deterministic build material of a run, derived purely from the
// normalized ScenarioConfig and the scenario Rng: node ids, key material,
// enrolled identities, link structure, round timing, genesis stake, and the
// governors' partial-visibility views. Extracted from Wiring so a cluster
// node process — handed only (config, seed) — reconstructs byte-identical
// material without a network or any live object. The derive() salts and the
// draw order inside each stream are part of the pinned-seed contract.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "identity/identity_manager.hpp"
#include "protocol/directory.hpp"
#include "protocol/round_timing.hpp"
#include "protocol/shard_router.hpp"
#include "protocol/stake.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::sim {

/// derive() salts of the scenario Rng's per-node and per-round child
/// streams. Every host that builds a node or replays a round — Wiring,
/// Workload, the cluster driver, observer and node processes — draws from
/// these, so they belong to the pinned-seed contract: changing one moves
/// every golden.
namespace salt {
[[nodiscard]] constexpr std::uint64_t collector(std::size_t i) { return 1000 + i; }
[[nodiscard]] constexpr std::uint64_t governor(std::size_t i) { return 2000 + i; }
[[nodiscard]] constexpr std::uint64_t provider(std::size_t i) { return 3000 + i; }
[[nodiscard]] constexpr std::uint64_t workload(Round round) { return 10'000 + round; }
[[nodiscard]] constexpr std::uint64_t audit(Round round) { return 20'000 + round; }
}  // namespace salt

/// The round schedule of a run of `config` (normalized): its phase deadlines,
/// keyed to the synchrony bound Delta and the collecting-phase span.
[[nodiscard]] protocol::RoundTiming round_timing(const ScenarioConfig& config);

struct SystemModel {
  std::unique_ptr<identity::IdentityManager> im;
  protocol::Directory directory;
  protocol::RoundTiming timing;
  // Signing keys in enrollment order; Wiring moves them into the node
  // objects, a cluster node host picks the one governor key it needs.
  std::vector<crypto::SigningKey> provider_keys;
  std::vector<crypto::SigningKey> collector_keys;
  std::vector<crypto::SigningKey> governor_keys;
  protocol::StakeLedger genesis;
  std::vector<std::vector<CollectorId>> governor_visible;

  // Committee partition. At shard_count = 1 every per-shard structure is
  // content-identical to its global counterpart above (same insertion order,
  // same circulant links), which is what keeps classic runs bit-identical.
  protocol::ShardRouter router;
  std::vector<protocol::Directory> shard_directories;  // global ids retained
  std::vector<protocol::StakeLedger> shard_genesis;

  /// `config` must already be normalized. Key derivation consumes one
  /// derive(2) child stream of `scenario_rng`: the identity-manager seed
  /// first, then provider, collector, governor keys in enrollment order.
  /// Node ids are sequential in that same order, matching
  /// SimNetwork::add_node. Throws ConfigError on an invalid visibility.
  [[nodiscard]] static SystemModel build(const ScenarioConfig& config,
                                         const Rng& scenario_rng);
};

}  // namespace repchain::sim
