// Canonical config codec behind the cluster handshake: byte-stable encode /
// decode round trips (crash schedules included), the genesis identity
// derived from them, the cluster-runnability gate for features only an
// in-process run can host, and normalize_config's validation.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "sim/harness/spec_codec.hpp"

namespace repchain::sim {
namespace {

ScenarioConfig rich_config() {
  ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 3;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 4;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.75;
  cfg.audit_probability = 0.4;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.9),
                   protocol::CollectorBehavior::misreporting(0.25)};
  cfg.enable_label_gossip = true;
  cfg.seed = 1234;
  return cfg;
}

TEST(SpecCodec, EncodeDecodeRoundTripIsByteStable) {
  ScenarioConfig cfg = rich_config();
  normalize_config(cfg);
  const Bytes blob = encode_config(cfg);
  const ScenarioConfig back = decode_config(blob);
  // Byte equality of re-encoding is the strongest equality the spec needs:
  // the encoding is canonical, so equal bytes mean equal configs.
  EXPECT_EQ(encode_config(back), blob);
}

TEST(SpecCodec, NormalizeIsIdempotentOnTheEncoding) {
  ScenarioConfig cfg = rich_config();
  normalize_config(cfg);
  const Bytes once = encode_config(cfg);
  normalize_config(cfg);
  EXPECT_EQ(encode_config(cfg), once);
}

TEST(SpecCodec, GenesisIsStableAndSeedSensitive) {
  ScenarioConfig a = rich_config();
  ScenarioConfig b = rich_config();
  EXPECT_EQ(config_genesis(a), config_genesis(b));

  b.seed = 1235;
  EXPECT_NE(config_genesis(a), config_genesis(b));

  ScenarioConfig c = rich_config();
  c.rounds += 1;
  EXPECT_NE(config_genesis(a), config_genesis(c));
}

TEST(SpecCodec, TruncatedBlobIsRejected) {
  ScenarioConfig cfg = rich_config();
  normalize_config(cfg);
  Bytes blob = encode_config(cfg);
  blob.resize(blob.size() / 2);
  EXPECT_THROW((void)decode_config(blob), DecodeError);
}

TEST(SpecCodec, ClusterGateRejectsDurableGovernors) {
  ScenarioConfig cfg = rich_config();
  cfg.durable_governors = true;
  EXPECT_THROW(require_cluster_runnable(cfg), ConfigError);
}

TEST(SpecCodec, ClusterGateRejectsStorageDir) {
  ScenarioConfig cfg = rich_config();
  cfg.storage_dir = "/tmp/somewhere";
  EXPECT_THROW(require_cluster_runnable(cfg), ConfigError);
}

TEST(SpecCodec, ClusterGateAcceptsPlainConfig) {
  ScenarioConfig cfg = rich_config();
  normalize_config(cfg);
  EXPECT_NO_THROW(require_cluster_runnable(cfg));
}

ScenarioConfig sharded_config() {
  ScenarioConfig cfg = rich_config();
  cfg.topology.providers = 16;
  cfg.topology.collectors = 8;
  cfg.topology.governors = 4;
  cfg.behaviors.clear();
  cfg.shard_count = 2;
  cfg.anchor_interval = 3;
  cfg.cross_shard_probability = 0.25;
  return cfg;
}

TEST(SpecCodec, ShardFieldsRoundTrip) {
  ScenarioConfig cfg = sharded_config();
  normalize_config(cfg);
  const Bytes blob = encode_config(cfg);
  const ScenarioConfig back = decode_config(blob);
  EXPECT_EQ(back.shard_count, 2u);
  EXPECT_EQ(back.anchor_interval, 3u);
  EXPECT_EQ(back.cross_shard_probability, 0.25);
  EXPECT_EQ(encode_config(back), blob);
}

TEST(SpecCodec, GenesisIsShardSensitive) {
  // Two configs differing only in the committee partition must not admit
  // each other: they describe different ledgers (per-shard chains), so the
  // genesis identity exchanged in the handshake has to split.
  ScenarioConfig one = sharded_config();
  ScenarioConfig two = sharded_config();
  one.shard_count = 1;
  one.cross_shard_probability = 0.0;  // needs shards; drop for the S=1 twin
  two.cross_shard_probability = 0.0;
  EXPECT_NE(config_genesis(one), config_genesis(two));

  ScenarioConfig spaced = sharded_config();
  spaced.anchor_interval = 4;
  EXPECT_NE(config_genesis(sharded_config()), config_genesis(spaced));
}

TEST(SpecCodec, ClusterGateRejectsShardsButEncodingAllowsThem) {
  ScenarioConfig cfg = sharded_config();
  normalize_config(cfg);
  // Sharded specs are first-class for codec/genesis purposes...
  EXPECT_NO_THROW(require_encodable(cfg));
  EXPECT_NO_THROW((void)encode_config(cfg));
  // ...but the multi-process cluster host runs exactly one committee.
  EXPECT_THROW(require_cluster_runnable(cfg), ConfigError);

  cfg.shard_count = 1;
  cfg.cross_shard_probability = 0.0;
  EXPECT_NO_THROW(require_cluster_runnable(cfg));
}

TEST(SpecCodec, NormalizeRejectsUnrealizableShardSpecs) {
  ScenarioConfig cfg = sharded_config();
  cfg.shard_count = 0;
  EXPECT_THROW(normalize_config(cfg), ConfigError);

  cfg = sharded_config();
  cfg.shard_count = 5;  // more committees than governors
  EXPECT_THROW(normalize_config(cfg), ConfigError);

  cfg = sharded_config();
  cfg.anchor_interval = 0;
  EXPECT_THROW(normalize_config(cfg), ConfigError);

  cfg = sharded_config();
  cfg.cross_shard_probability = 1.5;
  EXPECT_THROW(normalize_config(cfg), ConfigError);

  cfg = sharded_config();
  cfg.shard_count = 1;  // cross-shard traffic needs somewhere foreign to go
  EXPECT_THROW(normalize_config(cfg), ConfigError);

  cfg = sharded_config();
  cfg.governor_visibility = 0.5;  // views are drawn over the global set
  EXPECT_THROW(normalize_config(cfg), ConfigError);
}

CrashPlan crash(std::size_t governor, std::size_t crash_round,
                std::size_t restart_round) {
  CrashPlan plan;
  plan.governor = governor;
  plan.crash_round = crash_round;
  plan.restart_round = restart_round;
  return plan;
}

TEST(SpecCodec, CrashListRoundTripsByteStably) {
  // The free-running cluster executes crash schedules, so the cluster gate
  // admits them and the encoding carries them, offsets included.
  ScenarioConfig cfg = rich_config();
  cfg.crashes = {crash(1, 2, 4), crash(2, 2, 3)};
  cfg.crashes[0].crash_offset = 250 * kMillisecond;
  normalize_config(cfg);
  EXPECT_NO_THROW(require_cluster_runnable(cfg));
  const Bytes blob = encode_config(cfg);
  const ScenarioConfig back = decode_config(blob);
  ASSERT_EQ(back.crashes.size(), 2u);
  EXPECT_EQ(back.crashes[0].governor, 1u);
  EXPECT_EQ(back.crashes[0].crash_round, 2u);
  EXPECT_EQ(back.crashes[0].crash_offset, 250 * kMillisecond);
  EXPECT_EQ(back.crashes[0].restart_round, 4u);
  EXPECT_EQ(back.crashes[1].governor, 2u);
  EXPECT_EQ(encode_config(back), blob);
}

TEST(SpecCodec, GenesisIsCrashListSensitive) {
  // Observer and nodes must run one schedule: two configs differing only in
  // their crash lists never admit each other.
  const ScenarioConfig none = rich_config();
  ScenarioConfig one = rich_config();
  one.crashes = {crash(1, 2, 4)};
  ScenarioConfig later = rich_config();
  later.crashes = {crash(1, 3, 4)};
  ScenarioConfig offset = one;
  offset.crashes[0].crash_offset = 1;
  EXPECT_NE(config_genesis(none), config_genesis(one));
  EXPECT_NE(config_genesis(one), config_genesis(later));
  EXPECT_NE(config_genesis(one), config_genesis(offset));
}

TEST(SpecCodec, NormalizeValidatesCrashSchedules) {
  // rich_config: 3 governors, 4 rounds. Index, round-0 and restart order are
  // covered by the tests below; these are the schedule-level rules.
  const auto normalized = [](std::vector<CrashPlan> crashes) {
    ScenarioConfig cfg = rich_config();
    cfg.crashes = std::move(crashes);
    normalize_config(cfg);
  };
  // Overlapping multi-victim windows — including quorum-breaking ones — are
  // exactly what the free-running cluster exercises; they must validate.
  EXPECT_NO_THROW(normalized({crash(1, 2, 4), crash(2, 2, 3)}));
  EXPECT_NO_THROW(normalized({}));
  EXPECT_NO_THROW(normalized({crash(0, 4, 9)}));  // restart may fall past the run

  EXPECT_THROW(normalized({crash(1, 1, 2), crash(1, 3, 4)}),
               ConfigError);  // same governor scheduled twice
  EXPECT_THROW(normalized({crash(0, 5, 6)}),
               ConfigError);  // crash round past the configured rounds
}

TEST(SpecCodec, NormalizeRejectsPlanIndicesPastTheTopology) {
  // rich_config: 6 providers, 3 collectors, 3 governors.
  std::vector<ScenarioConfig> bad(5, rich_config());
  bad[0].crashes = {crash(3, 2, 3)};
  bad[1].adversary.equivocating_leaders.resize(1);
  bad[1].adversary.equivocating_leaders[0].governor = 3;
  bad[2].adversary.lying_sync_peers.resize(1);
  bad[2].adversary.lying_sync_peers[0].governor = 3;
  bad[3].adversary.byzantine_collectors.resize(1);
  bad[3].adversary.byzantine_collectors[0].collector = 3;
  bad[4].adversary.double_spenders.resize(1);
  bad[4].adversary.double_spenders[0].provider = 6;
  for (ScenarioConfig& cfg : bad) EXPECT_THROW(normalize_config(cfg), ConfigError);
}

TEST(SpecCodec, NormalizeRejectsACrashInRoundZero) {
  ScenarioConfig cfg = rich_config();
  cfg.crashes = {crash(1, 0, 2)};
  EXPECT_THROW(normalize_config(cfg), ConfigError);
}

TEST(SpecCodec, NormalizeRejectsARestartNotAfterItsCrash) {
  ScenarioConfig cfg = rich_config();
  cfg.crashes = {crash(1, 2, 2)};  // would silently never restart
  EXPECT_THROW(normalize_config(cfg), ConfigError);
  cfg.crashes = {crash(1, 3, 2)};
  EXPECT_THROW(normalize_config(cfg), ConfigError);
}

}  // namespace
}  // namespace repchain::sim
