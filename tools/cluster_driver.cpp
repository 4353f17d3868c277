// Loopback cluster golden check, two modes.
//
// Lockstep (default): run a golden scenario twice — once fully in-process
// (the simulation the goldens pin) and once with every governor in its own
// `node` process speaking the versioned wire protocol over real TCP — and
// byte-compare the two runs' canonical summaries (sim::encode_run_result).
// The lockstep replay (src/cluster/) makes the comparison exact: any
// divergence, down to one ULP of a double, is a bug.
//
// Free (--mode=free): free-running golden. Every node self-drives its
// rounds on a real monotonic clock and exchanges protocol traffic
// peer-to-peer (see src/cluster/free_run.hpp); the driver becomes an
// observer enforcing the statistical convergence contract. This is the
// fault-tolerance mode: nodes persist their state, the driver SIGKILLs
// victims as their crash round's collecting phase opens and respawns each
// against its on-disk WAL/snapshot as a higher incarnation. Overlapping
// kills that transiently drop the committee below election quorum must
// stall safely (watchdog trips, no fork) and recover after the respawns.
//
//   cluster_driver [--scenario=mixed|gossip] [--artifact-dir=<dir>]
//                  [--mode=lockstep|free]
//                  [--kill=<victim>@<kill_round>:<restart_round>]...
//                  [--state-root=<dir>] [--listen-port=<port>]
//                  [--node-port=<port>] [--peer-base=<port>]
//                  [--grace=<rounds>]
//
// Every flag after --mode applies to free mode only. --kill may repeat (one
// victim each; windows may overlap); the kills become the run's spec crash
// schedule (ScenarioConfig::crashes). Ports must lie in [0, 65535] (0 =
// ephemeral) and --grace must be a round count >= 0; a malformed or
// out-of-range value exits 2. --node-port points the children at a
// different dial port (a wire_proxy interposed between nodes and driver);
// admission still happens on the driver's own listener, which the proxy
// forwards to. --peer-base sets the first port of the node-to-node mesh:
// node i listens on peer_base + i. --state-root is wiped before each run and
// kept after it; without one the nodes persist under a temporary root that
// is removed when the run ends, failed or not.
//
// On a failure the evidence is written to <artifact-dir> (CI uploads it):
// cluster_diff_<scenario>.txt holds the hexfloat renderings of both lockstep
// runs, free_run_<scenario>.txt the free-run contract report. The exit code
// is the number of failing scenarios.

#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cluster/driver.hpp"
#include "cluster/free_run.hpp"
#include "cluster/local_cluster.hpp"
#include "common/flag_parse.hpp"
#include "sim/harness/run_codec.hpp"

namespace {

using namespace repchain;

struct Golden {
  const char* name;
  sim::ScenarioConfig config;
};

sim::ScenarioConfig mixed_config() {
  sim::ScenarioConfig cfg;
  cfg.topology.providers = 8;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 5;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.audit_probability = 0.6;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.9),
                   protocol::CollectorBehavior::misreporting(0.3),
                   protocol::CollectorBehavior::forging(0.2)};
  cfg.seed = 42;
  return cfg;
}

sim::ScenarioConfig gossip_config() {
  sim::ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 3;
  cfg.topology.governors = 4;
  cfg.topology.r = 2;
  cfg.rounds = 4;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::equivocating()};
  cfg.enable_label_gossip = true;
  cfg.seed = 2112;
  return cfg;
}

/// Run one golden over a real loopback cluster and return its RunResult.
sim::RunResult cluster_run(const Golden& golden) {
  cluster::LocalCluster nodes(golden.config,
                              {.node_bin = cluster::beside_executable("node")});
  cluster::RemoteGovernors remote(nodes.take_conns());
  sim::RunResult result = sim::simulate_run(golden.config, &remote);
  remote.shutdown();
  for (std::size_t i = 0; i < golden.config.topology.governors; ++i) {
    const int status = nodes.wait_exit(i);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw NetError("node process exited abnormally (status " +
                     std::to_string(status) + ")");
    }
  }
  return result;
}

/// Render a crash schedule for log lines and failure artifacts.
std::string render_plans(const std::vector<sim::CrashPlan>& plans) {
  std::string out;
  for (const sim::CrashPlan& p : plans) {
    if (!out.empty()) out += ' ';
    out += std::to_string(p.governor) + '@' + std::to_string(p.crash_round) +
           ':' + std::to_string(p.restart_round);
  }
  return out.empty() ? "none" : out;
}

void print_degradation(const char* name, const cluster::DegradationReport& d,
                       std::size_t governors, std::uint32_t restart_attempts) {
  std::printf("%-8s degradation: min live %zu/%zu%s, %" PRIu64
              " stalls (span %" PRIu64 "us), %u restart attempts, "
              "recovered in %u rounds, %u spontaneous exits\n",
              name, d.min_live, governors,
              d.quorum_lost ? " (quorum lost)" : "", d.stalled_events,
              d.stall_last - d.stall_first, restart_attempts,
              static_cast<unsigned>(d.rounds_to_recover), d.spontaneous_exits);
}

/// Run one golden in free-running mode: every node self-drives rounds on a
/// real monotonic clock over a peer mesh while the observer injects the
/// workload, executes the `kills` crash schedule and enforces the
/// statistical convergence contract (see src/cluster/free_run.hpp).
int free_run(const Golden& golden, const std::vector<sim::CrashPlan>& kills,
             const std::string& artifact_dir,
             const cluster::LocalCluster::Deployment& deployment, Round grace) {
  const sim::ScenarioConfig config =
      cluster::with_kills(cluster::free_run_config(golden.config), kills);
  const std::vector<sim::CrashPlan>& plans = config.crashes;
  const std::size_t governors = config.topology.governors;
  cluster::LocalCluster nodes(config, deployment);
  cluster::FreeRunDriver driver(config, nodes, grace);
  const std::size_t quorum = cluster::election_quorum(governors);
  const std::size_t min_live =
      cluster::min_live_governors(plans, governors, config.rounds);
  if (min_live < quorum) {
    std::printf("%-8s schedule %s breaks quorum (min live %zu < %zu) — "
                "expecting a stall window\n",
                golden.name, render_plans(plans).c_str(), min_live, quorum);
  }
  const cluster::FreeRunReport report = driver.run();

  if (report.ok()) {
    std::printf("%-8s FREE-RUN CONVERGED  head serial %" PRIu64
                " hash %.16s… %" PRIu64 " txs in [%" PRIu64 ", %" PRIu64
                "] (ref %" PRIu64 "), %u rounds (converged r%u)\n",
                golden.name, report.head_serial, report.head_hash_hex.c_str(),
                report.committed_txs, report.tolerance_lo,
                report.tolerance_hi, report.reference_txs,
                static_cast<unsigned>(report.rounds_run),
                static_cast<unsigned>(report.converged_round));
    if (!plans.empty()) {
      print_degradation(golden.name, report.degradation, governors,
                        report.restart_attempts);
    }
    return 0;
  }
  const std::string path =
      artifact_dir + "/free_run_" + std::string(golden.name) + ".txt";
  std::ofstream out(path);
  out << "free-run contract FAILED after " << report.rounds_run
      << " rounds (converged " << report.converged << " monotone "
      << report.monotone_ok << " prefix " << report.prefix_ok
      << " txs_in_tolerance " << report.txs_in_tolerance << ")\n"
      << "crash schedule: " << render_plans(plans) << " (first kill t="
      << report.killed_at << "us, last rejoin t=" << report.rejoined_at
      << "us, attempts " << report.restart_attempts << ")\n"
      << "quorum_lost " << report.degradation.quorum_lost << " min_live "
      << report.degradation.min_live << " stalls "
      << report.degradation.stalled_events << " stall_span "
      << (report.degradation.stall_last - report.degradation.stall_first)
      << "us rounds_to_recover " << report.degradation.rounds_to_recover
      << " spontaneous_exits " << report.degradation.spontaneous_exits
      << "\n"
      << "head: serial " << report.head_serial << " hash "
      << report.head_hash_hex << " committed " << report.committed_txs
      << " reference " << report.reference_txs << " band ["
      << report.tolerance_lo << ", " << report.tolerance_hi << "]\n";
  for (std::size_t i = 0; i < report.node_states.size(); ++i) {
    const std::optional<sim::GovernorState>& s = report.node_states[i];
    out << "node " << i << ": ";
    if (!s) {
      out << "dead\n";
      continue;
    }
    out << "head serial " << s->head_serial << " hash "
        << to_hex(view(s->head_hash)) << " watchdog " << s->watchdog_trips
        << "\n";
  }
  std::fprintf(stderr, "%-8s FREE-RUN FAILED — report written to %s\n",
               golden.name, path.c_str());
  return 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: cluster_driver [--scenario=mixed|gossip] "
               "[--artifact-dir=<dir>] [--mode=lockstep|free] "
               "[--kill=v@k:r]... [--state-root=<dir>] "
               "[--listen-port=<p>] [--node-port=<p>] "
               "[--peer-base=<p>] [--grace=<rounds>]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  std::string artifact_dir = ".";
  std::string mode = "lockstep";
  std::string state_root;
  std::vector<sim::CrashPlan> kills;  // one --kill each; may overlap
  long listen_port = 0;
  long node_port = 0;
  // Mesh base port: PID-derived default keeps concurrent local runs apart;
  // ctest entries pin it explicitly (with a port resource lock).
  long peer_base = 20000 + (static_cast<long>(::getpid()) * 131) % 20000;
  long grace = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scenario=", 0) == 0) {
      only = arg.substr(11);
    } else if (arg.rfind("--artifact-dir=", 0) == 0) {
      artifact_dir = arg.substr(15);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg.rfind("--kill=", 0) == 0) {
      sim::CrashPlan plan;
      if (!cluster::parse_crash_plan(arg.substr(7), plan)) {
        std::fprintf(stderr, "bad --kill spec (want v@kill:restart, "
                             "restart > kill > 0)\n");
        return 2;
      }
      kills.push_back(plan);
    } else if (arg.rfind("--state-root=", 0) == 0) {
      state_root = arg.substr(13);
    } else if (arg.rfind("--listen-port=", 0) == 0) {
      listen_port = flag_value("--listen-port", arg.c_str() + 14, 0L, 65535L, usage);
    } else if (arg.rfind("--node-port=", 0) == 0) {
      node_port = flag_value("--node-port", arg.c_str() + 12, 0L, 65535L, usage);
    } else if (arg.rfind("--peer-base=", 0) == 0) {
      peer_base = flag_value("--peer-base", arg.c_str() + 12, 1L, 65535L - 64, usage);
    } else if (arg.rfind("--grace=", 0) == 0) {
      grace = flag_value("--grace", arg.c_str() + 8, 0L, LONG_MAX, usage);
    } else {
      usage();
    }
  }
  ::alarm(600);  // hard stop: a wedged cluster must not hang CI forever

  std::vector<Golden> goldens;
  if (only.empty() || only == "mixed") goldens.push_back({"mixed", mixed_config()});
  if (only.empty() || only == "gossip")
    goldens.push_back({"gossip", gossip_config()});
  if (goldens.empty()) {
    std::fprintf(stderr, "unknown scenario '%s'\n", only.c_str());
    return 2;
  }

  if (mode == "free") {
    // No --kill is the zero-fault contract check.
    const cluster::LocalCluster::Deployment deployment{
        .node_bin = cluster::beside_executable("node"),
        .state_root = state_root,
        .log_dir = artifact_dir,
        .listen_port = static_cast<std::uint16_t>(listen_port),
        .node_port = static_cast<std::uint16_t>(node_port),
        .peer_base = static_cast<std::uint16_t>(peer_base)};
    int failures = 0;
    for (const Golden& golden : goldens) {
      try {
        failures += free_run(golden, kills, artifact_dir, deployment,
                             static_cast<Round>(grace));
      } catch (const std::exception& e) {
        ++failures;
        std::fprintf(stderr, "%-8s FAILED: %s\n", golden.name, e.what());
      }
    }
    return failures;
  }
  if (mode != "lockstep") {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  if (!kills.empty()) {
    std::fprintf(stderr, "--kill needs --mode=free (lockstep has no crash "
                         "schedule)\n");
    return 2;
  }

  int failures = 0;
  for (const Golden& golden : goldens) {
    try {
      const sim::RunResult simulated = sim::simulate_run(golden.config);
      const sim::RunResult socketed = cluster_run(golden);
      const Bytes a = sim::encode_run_result(simulated);
      const Bytes b = sim::encode_run_result(socketed);
      if (a == b) {
        std::printf("%-8s OK  (%zu bytes, %zu rounds, %" PRIu64 " messages)\n",
                    golden.name, a.size(), simulated.history.size(),
                    simulated.summary.network.messages_sent);
        continue;
      }
      ++failures;
      const std::string path =
          artifact_dir + "/cluster_diff_" + golden.name + ".txt";
      std::ofstream out(path);
      out << "=== simulated ===\n"
          << sim::render_run_result(simulated) << "\n=== socket replay ===\n"
          << sim::render_run_result(socketed);
      std::fprintf(stderr, "%-8s MISMATCH — diff written to %s\n", golden.name,
                   path.c_str());
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "%-8s FAILED: %s\n", golden.name, e.what());
    }
  }
  return failures;
}
