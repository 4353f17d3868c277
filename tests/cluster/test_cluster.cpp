// In-process cluster harness: NodeHosts served on socketpairs from threads
// stand in for the forked node processes, which lets the lockstep replay be
// asserted byte-for-byte against the simulation inside one test binary, and
// lets the admission failures (wrong genesis, future version, bad role) be
// driven from hand-crafted welcomes, against lockstep and free-running nodes
// alike, and RemoteGovernors' validation of node replies from hand-crafted
// replies.
// The free-running cluster's crash-plan parsing and kill instant, its node
// reads, session-resume welcome and the launcher's respawn admission check
// are covered here too; its multi-process kill/restart runs are the
// cluster_* ctest entries.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/driver.hpp"
#include "cluster/free_node.hpp"
#include "cluster/free_run.hpp"
#include "cluster/local_cluster.hpp"
#include "cluster/node_host.hpp"
#include "cluster/sync_conn.hpp"
#include "common/errors.hpp"
#include "runtime/loopback.hpp"
#include "sim/harness/run_codec.hpp"
#include "sim/harness/spec_codec.hpp"
#include "sim/harness/system_model.hpp"

namespace repchain::cluster {
namespace {

sim::ScenarioConfig small_config() {
  sim::ScenarioConfig cfg;
  cfg.topology.providers = 3;
  cfg.topology.collectors = 2;
  cfg.topology.governors = 2;
  cfg.topology.r = 2;
  cfg.rounds = 2;
  cfg.txs_per_provider_per_round = 1;
  cfg.p_valid = 0.7;
  cfg.audit_probability = 0.5;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.8)};
  cfg.seed = 7;
  return cfg;
}

crypto::Hash256 genesis_of(sim::ScenarioConfig cfg) {
  sim::normalize_config(cfg);
  return sim::config_genesis(cfg);
}

/// The config a lockstep or a free-running node runs for small_config().
sim::ScenarioConfig host_config(bool free_run) {
  return free_run ? free_run_config(small_config()) : small_config();
}

/// One governor "process" served from a thread; any WireError escaping
/// `serve` is recorded for assertions.
struct HostThread {
  explicit HostThread(std::function<void()> serve)
      : thread([serve = std::move(serve), this] {
          try {
            serve();
          } catch (const wire::WireError& e) {
            error = e.code();
          } catch (const std::exception&) {
            error = wire::ProtocolError::kBadPayload;  // unexpected kind
          }
        }) {}
  ~HostThread() { join(); }

  void join() {
    if (thread.joinable()) thread.join();
  }

  wire::ProtocolError error = wire::ProtocolError::kNone;
  std::thread thread;  // after `error`, which it writes
};

/// Serve governor `index` of `config` over `fd`: a lockstep NodeHost, or a
/// FreeNodeHost (peer base 0: node 0 binds an ephemeral mesh port and dials
/// nobody).
std::function<void()> node_host(const sim::ScenarioConfig& config,
                                std::size_t index, int fd,
                                bool free_run = false) {
  if (free_run) return [=] { FreeNodeHost(config, index, 0).run(fd); };
  return [=] { NodeHost(config, index).serve(fd); };
}

std::pair<int, int> stream_pair() {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  return {sv[0], sv[1]};
}

TEST(Cluster, LockstepReplayMatchesSimulationByteForByte) {
  const sim::ScenarioConfig config = small_config();
  const crypto::Hash256 genesis = genesis_of(config);
  const std::size_t governors = config.topology.governors;

  std::vector<std::unique_ptr<HostThread>> hosts;
  std::vector<std::unique_ptr<SyncConn>> conns(governors);
  const wire::Welcome local = driver_welcome(genesis);
  for (std::size_t i = 0; i < governors; ++i) {
    const auto [driver_fd, node_fd] = stream_pair();
    hosts.push_back(std::make_unique<HostThread>(node_host(config, i, node_fd)));
    auto conn = std::make_unique<SyncConn>(driver_fd);
    const wire::Welcome remote = handshake(*conn, local, genesis);
    ASSERT_EQ(remote.role, wire::Role::kNode);
    ASSERT_EQ(remote.node_index, i);
    ASSERT_EQ(remote.hosted.size(), 1u);
    conns[remote.node_index] = std::move(conn);
  }

  RemoteGovernors remote(std::move(conns));
  const sim::RunResult socketed = sim::simulate_run(config, &remote);
  remote.shutdown();
  const sim::RunResult simulated = sim::simulate_run(config);

  EXPECT_EQ(sim::encode_run_result(socketed), sim::encode_run_result(simulated))
      << "socket replay diverged from the simulation:\n=== simulated ===\n"
      << sim::render_run_result(simulated) << "\n=== socket replay ===\n"
      << sim::render_run_result(socketed);
  for (const auto& host : hosts) {
    EXPECT_EQ(host->error, wire::ProtocolError::kNone);
  }
}

/// small_config()'s network id of governor `g`: ids run providers,
/// collectors, governors.
NodeId governor_node(std::uint32_t g) {
  const sim::ScenarioConfig config = small_config();
  return NodeId(static_cast<std::uint32_t>(config.topology.providers +
                                           config.topology.collectors) + g);
}

/// A lockstep run of small_config() in which governor 1 is a real NodeHost
/// and governor 0 a stand-in thread: it handshakes, answers its first
/// requests with `replies` (ground-truth frames aside), one each, and hangs
/// up. Returns the code of the WireError the run fails with.
wire::ProtocolError lockstep_against(
    const std::vector<std::pair<ClusterPacket, Bytes>>& replies) {
  const sim::ScenarioConfig config = small_config();
  const crypto::Hash256 genesis = genesis_of(config);
  const auto [driver0, node0] = stream_pair();
  const auto [driver1, node1] = stream_pair();
  HostThread stand_in([&, node0] {
    SyncConn conn(node0);
    accept_driver(conn, genesis, 0, governor_node(0), 0, 0);
    for (const auto& [type, payload] : replies) {
      wire::Frame request = conn.recv_frame();
      while (request.type == static_cast<std::uint16_t>(ClusterPacket::kRegisterTx)) {
        request = conn.recv_frame();
      }
      conn.send_frame(static_cast<std::uint16_t>(type), payload);
    }
  });
  HostThread real(node_host(config, 1, node1));

  std::vector<std::unique_ptr<SyncConn>> conns;
  for (const int fd : {driver0, driver1}) {
    conns.push_back(std::make_unique<SyncConn>(fd));
    (void)handshake(*conns.back(), driver_welcome(genesis), genesis);
  }
  RemoteGovernors remote(std::move(conns));
  try {
    (void)sim::simulate_run(config, &remote);
  } catch (const wire::WireError& e) {
    return e.code();
  }
  return wire::ProtocolError::kNone;
}

TEST(Cluster, LockstepDriverRefusesALeaderPastTheGovernorCount) {
  sim::GovernorState state;
  state.leader = GovernorId(2);  // small_config has governors 0 and 1
  EXPECT_EQ(lockstep_against({{ClusterPacket::kState, encode_state(state)}}),
            wire::ProtocolError::kBadPayload);
}

TEST(Cluster, LockstepDriverRefusesARevenueShareOfAnUnknownCollector) {
  sim::GovernorState state;
  state.shares = {{CollectorId(0), 0.5}, {CollectorId(2), 0.5}};  // 2 collectors
  EXPECT_EQ(lockstep_against({{ClusterPacket::kState, encode_state(state)}}),
            wire::ProtocolError::kBadPayload);
}

TEST(Cluster, LockstepDriverRefusesEffectsSentAsAnotherNode) {
  const NodeId impostors[] = {governor_node(1), NodeId(1000)};  // 1000: nobody
  const Effect::Kind sends[] = {Effect::Kind::kSend, Effect::Kind::kMulticast,
                                Effect::Kind::kBroadcast};
  for (const Effect::Kind kind : sends) {
    for (const NodeId from : impostors) {
      Effect e;
      e.kind = kind;
      e.from = from;
      if (kind != Effect::Kind::kBroadcast) e.to = {NodeId(0)};
      // The first request is the round-open state read, the second the arm.
      EXPECT_EQ(lockstep_against({{ClusterPacket::kState, encode_state({})},
                                  {ClusterPacket::kDone, encode_effects({e})}}),
                wire::ProtocolError::kBadPayload)
          << "effect kind " << static_cast<int>(kind) << " from node "
          << from.value();
    }
  }
}

void expect_wrong_genesis_refused(bool free_run) {
  const sim::ScenarioConfig config = host_config(free_run);
  sim::ScenarioConfig other = config;
  other.seed = 8;  // different chain: different genesis hash
  ASSERT_NE(genesis_of(config), genesis_of(other));

  const auto [driver_fd, node_fd] = stream_pair();
  HostThread host(node_host(other, 0, node_fd, free_run));
  SyncConn conn(driver_fd);
  const crypto::Hash256 genesis = genesis_of(config);
  try {
    (void)handshake(conn, driver_welcome(genesis), genesis);
    FAIL() << "foreign-genesis node admitted";
  } catch (const wire::WireError& e) {
    EXPECT_EQ(e.code(), wire::ProtocolError::kWrongGenesis);
  }
  host.join();  // the node refuses the driver's genesis just the same
  EXPECT_EQ(host.error, wire::ProtocolError::kWrongGenesis);
}

TEST(Cluster, WrongGenesisNodeIsRefusedAtHandshake) {
  expect_wrong_genesis_refused(/*free_run=*/false);
}

TEST(Cluster, WrongGenesisFreeNodeIsRefusedAtHandshake) {
  expect_wrong_genesis_refused(/*free_run=*/true);
}

TEST(Cluster, FutureOnlyDriverVersionIsAnsweredWithHighVersionError) {
  const sim::ScenarioConfig config = small_config();
  const auto [driver_fd, node_fd] = stream_pair();
  HostThread host(node_host(config, 0, node_fd));

  SyncConn conn(driver_fd);
  wire::Welcome future = driver_welcome(genesis_of(config));
  future.version_min = wire::kVersionMax + 1;
  future.version_max = wire::kVersionMax + 1;
  conn.send_frame(static_cast<std::uint16_t>(wire::PacketType::kWelcome),
                  wire::encode_welcome(future));

  // The node sends its own welcome first, then the admission verdict.
  const wire::Frame their_welcome = conn.recv_frame();
  EXPECT_EQ(their_welcome.type,
            static_cast<std::uint16_t>(wire::PacketType::kWelcome));
  const wire::Frame verdict = conn.recv_frame();
  ASSERT_EQ(verdict.type, static_cast<std::uint16_t>(wire::PacketType::kError));
  EXPECT_EQ(wire::decode_error(verdict.payload).code,
            wire::ProtocolError::kHighVersion);
  host.join();
  EXPECT_EQ(host.error, wire::ProtocolError::kHighVersion);
}

void expect_non_driver_refused(bool free_run) {
  const sim::ScenarioConfig config = host_config(free_run);
  const auto [driver_fd, node_fd] = stream_pair();
  HostThread host(node_host(config, 0, node_fd, free_run));

  SyncConn conn(driver_fd);
  wire::Welcome imposter = driver_welcome(genesis_of(config));
  imposter.role = wire::Role::kPeer;  // a mesh peer, not the cluster driver
  conn.send_frame(static_cast<std::uint16_t>(wire::PacketType::kWelcome),
                  wire::encode_welcome(imposter));

  (void)conn.recv_frame();  // the node's welcome
  const wire::Frame verdict = conn.recv_frame();
  ASSERT_EQ(verdict.type, static_cast<std::uint16_t>(wire::PacketType::kError));
  EXPECT_EQ(wire::decode_error(verdict.payload).code,
            wire::ProtocolError::kBadRole);
  host.join();
  EXPECT_EQ(host.error, wire::ProtocolError::kBadRole);
}

TEST(Cluster, NonDriverPeerIsRefusedWithBadRole) {
  expect_non_driver_refused(/*free_run=*/false);
}

TEST(Cluster, NonDriverPeerIsRefusedByFreeNodeWithBadRole) {
  expect_non_driver_refused(/*free_run=*/true);
}

TEST(Cluster, OutOfRangeGovernorIndexIsAConfigError) {
  EXPECT_THROW(NodeHost(small_config(), 99), ConfigError);
}

TEST(Cluster, SyncConnRecvTimeoutIsPeerTimeout) {
  const auto [driver_fd, node_fd] = stream_pair();
  SyncConn conn(driver_fd);
  conn.set_timeout(100'000);  // 100ms deadline on a silent peer
  try {
    (void)conn.recv_frame();
    FAIL() << "recv on a silent peer returned";
  } catch (const wire::WireError& e) {
    EXPECT_EQ(e.code(), wire::ProtocolError::kPeerTimeout);
  }
  ::close(node_fd);
}

TEST(Cluster, LockstepRunRefusesACrashSchedule) {
  sim::ScenarioConfig config = small_config();
  sim::CrashPlan plan;
  plan.governor = 1;
  plan.crash_round = 1;
  plan.restart_round = 2;
  config.crashes = {plan};
  RemoteGovernors remote({});  // refused before any connection is used
  EXPECT_THROW((void)sim::simulate_run(config, &remote), ConfigError);
}

TEST(Cluster, FreeNodeServesTheLockstepReads) {
  const sim::ScenarioConfig config = free_run_config(small_config());
  const crypto::Hash256 genesis = genesis_of(config);
  const auto [driver_fd, node_fd] = stream_pair();
  HostThread node(node_host(config, 0, node_fd, /*free_run=*/true));

  SyncConn conn(driver_fd);
  (void)handshake(conn, driver_welcome(genesis), genesis);
  conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kQueryState), {});
  const wire::Frame state = conn.recv_frame();
  ASSERT_EQ(state.type, static_cast<std::uint16_t>(ClusterPacket::kState));
  EXPECT_EQ(decode_state(state.payload).head_serial, 0u);  // not started
  conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kSnapshot), {});
  const wire::Frame chain = conn.recv_frame();
  ASSERT_EQ(chain.type, static_cast<std::uint16_t>(ClusterPacket::kSnapshotData));
  EXPECT_TRUE(decode_snapshot(chain.payload).empty());

  conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kShutdown), {});
  (void)conn.recv_frame();
  node.join();
  EXPECT_EQ(node.error, wire::ProtocolError::kNone);
}

TEST(Cluster, RestartedNodeAnnouncesSessionResume) {
  // Only free-running nodes are durable. Incarnation 1 against an empty
  // store: recovery finds nothing (head serial 0), but the welcome must
  // still announce the returning life.
  const sim::ScenarioConfig config = free_run_config(small_config());
  const crypto::Hash256 genesis = genesis_of(config);
  const auto [driver_fd, node_fd] = stream_pair();
  char dir[] = "/tmp/repchain_resume_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  HostThread node([&, node_fd] {
    FreeNodeHost(config, 0, /*peer_base=*/0, dir, /*incarnation=*/1).run(node_fd);
  });

  SyncConn conn(driver_fd);
  const wire::Welcome remote = handshake(conn, driver_welcome(genesis), genesis);
  EXPECT_TRUE(remote.resume);
  EXPECT_EQ(remote.incarnation, 1u);
  EXPECT_EQ(remote.head_serial, 0u);

  conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kShutdown), {});
  (void)conn.recv_frame();
  node.join();
  EXPECT_EQ(node.error, wire::ProtocolError::kNone);
  std::filesystem::remove_all(dir);
}

/// A loopback port nothing listens on right now.
std::uint16_t unused_port() {
  std::uint16_t port = 0;
  ::close(runtime::listen_loopback(0, &port));
  return port;
}

/// Stand-in for a node process: dial the launcher's listener (retrying
/// until it is up) and present `welcome`. With `expect_verdict`, returns the
/// code of the kError the launcher answers with after the handshake.
wire::ProtocolError fake_node(std::uint16_t port, const wire::Welcome& welcome,
                              bool expect_verdict) {
  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 500; ++attempt) {
    try {
      fd = runtime::dial_loopback(port);
    } catch (const NetError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (fd < 0) return wire::ProtocolError::kPeerTimeout;
  SyncConn conn(fd);
  (void)handshake(conn, welcome, welcome.genesis);
  if (!expect_verdict) return wire::ProtocolError::kNone;
  const wire::Frame verdict = conn.recv_frame();
  return verdict.type == static_cast<std::uint16_t>(wire::PacketType::kError)
             ? wire::decode_error(verdict.payload).code
             : wire::ProtocolError::kNone;
}

TEST(Cluster, RespawnRefusesAWelcomeThatIsNotTheReturningNode) {
  // Threads dialing the listener stand in for the node processes; the
  // children the launcher forks run /bin/true and exit at once.
  const sim::ScenarioConfig config = small_config();
  const std::uint16_t port = unused_port();
  const auto node_welcome = [&](std::uint32_t index, bool resume,
                                std::uint32_t incarnation) {
    wire::Welcome w;
    w.genesis = genesis_of(config);
    w.role = wire::Role::kNode;
    w.node_index = index;
    w.resume = resume;
    w.incarnation = incarnation;
    return w;
  };

  std::vector<std::thread> first_lives;
  for (std::uint32_t i = 0; i < config.topology.governors; ++i) {
    first_lives.emplace_back([&, i] {
      (void)fake_node(port, node_welcome(i, false, 0), /*expect_verdict=*/false);
    });
  }
  LocalCluster nodes(config, {.node_bin = "/bin/true", .listen_port = port});
  for (std::thread& t : first_lives) t.join();

  // Respawning node 1 as incarnation 1: the wrong node, a welcome without
  // session resume, and another incarnation are each refused.
  const wire::Welcome bad[] = {node_welcome(0, true, 1),
                               node_welcome(1, false, 1),
                               node_welcome(1, true, 2)};
  for (const wire::Welcome& welcome : bad) {
    wire::ProtocolError answered = wire::ProtocolError::kNone;
    std::thread child([&] { answered = fake_node(port, welcome, true); });
    try {
      (void)nodes.respawn(1, 1);
      ADD_FAILURE() << "respawn admitted node " << welcome.node_index
                    << " resume " << welcome.resume << " incarnation "
                    << welcome.incarnation;
    } catch (const wire::WireError& e) {
      EXPECT_EQ(e.code(), wire::ProtocolError::kBadNodeIndex);
    }
    child.join();
    EXPECT_EQ(answered, wire::ProtocolError::kBadNodeIndex);
  }

  std::thread returning(
      [&] { (void)fake_node(port, node_welcome(1, true, 1), false); });
  EXPECT_NE(nodes.respawn(1, 1), nullptr);
  returning.join();
}

TEST(Cluster, CrashPlanParsesCanonicalSpec) {
  sim::CrashPlan plan;
  ASSERT_TRUE(parse_crash_plan("1@2:4", plan));
  EXPECT_EQ(plan.governor, 1u);
  EXPECT_EQ(plan.crash_round, 2u);
  EXPECT_EQ(plan.restart_round, 4u);

  ASSERT_TRUE(parse_crash_plan("12@3:15", plan));
  EXPECT_EQ(plan.governor, 12u);
  EXPECT_EQ(plan.crash_round, 3u);
  EXPECT_EQ(plan.restart_round, 15u);
}

TEST(Cluster, KillsFireAsTheCollectingPhaseOpens) {
  const sim::ScenarioConfig config = with_kills(
      free_run_config(small_config()),
      {{.governor = 1, .crash_round = 1, .restart_round = 2}});
  ASSERT_EQ(config.crashes.size(), 1u);
  const sim::SystemModel model = sim::SystemModel::build(config, Rng(config.seed));
  EXPECT_GT(model.timing.workload_offset, 0u);
  EXPECT_EQ(config.crashes[0].crash_offset, model.timing.workload_offset);
}

TEST(Cluster, CrashPlanRejectsMalformedSpecs) {
  sim::CrashPlan plan;
  const char* bad[] = {
      "",        "1",      "1@2",    "@2:3",   "1@:3",    "1@2:",
      "x@2:3",   "1@x:3",  "1@2:x",  "1x@2:3", "1@2x:3",  "1@2:3x",
      "1:2@3",   "1@2:3:4x",
      "1@0:3",   // kill round 0: the schedule starts at round 1
      "1@3:3",   // restart not strictly after kill
      "1@3:2",
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(parse_crash_plan(spec, plan)) << "accepted: " << spec;
  }
}

TEST(Cluster, MinLiveGovernorsTracksOverlappingWindows) {
  const auto plan = [](std::size_t v, Round k, Round r) {
    return sim::CrashPlan{.governor = v, .crash_round = k, .restart_round = r};
  };

  EXPECT_EQ(min_live_governors({}, 4, 5), 4u);

  // One victim down for rounds [1, 2): never below quorum on 3 governors.
  EXPECT_EQ(min_live_governors({plan(0, 1, 2)}, 3, 3), 2u);
  EXPECT_GE(min_live_governors({plan(0, 1, 2)}, 3, 3), election_quorum(3));

  // Two overlapping windows on 4 governors: round 2 has both victims down
  // (2 live < quorum 3), round 3 has victim 2 back but victim 1 still out.
  const std::vector<sim::CrashPlan> overlap = {plan(1, 2, 4), plan(2, 2, 3)};
  EXPECT_EQ(min_live_governors(overlap, 4, 5), 2u);
  EXPECT_LT(min_live_governors(overlap, 4, 5), election_quorum(4));

  // Disjoint windows never stack: one dead at a time.
  const std::vector<sim::CrashPlan> disjoint = {plan(0, 1, 2), plan(1, 3, 4)};
  EXPECT_EQ(min_live_governors(disjoint, 4, 5), 3u);

  EXPECT_EQ(election_quorum(1), 1u);
  EXPECT_EQ(election_quorum(2), 2u);
  EXPECT_EQ(election_quorum(3), 2u);
  EXPECT_EQ(election_quorum(4), 3u);
  EXPECT_EQ(election_quorum(5), 3u);
}

}  // namespace
}  // namespace repchain::cluster
