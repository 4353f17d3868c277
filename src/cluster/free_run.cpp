#include "cluster/free_run.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include "common/errors.hpp"
#include "sim/harness/run_codec.hpp"
#include "sim/harness/spec_codec.hpp"
#include "sim/harness/workload.hpp"

namespace repchain::cluster {
namespace {

// Accepted committed-tx band, as fractions of the reference total scaled by
// the rounds actually run.
constexpr double kToleranceLo = 0.2;
constexpr double kToleranceHi = 2.5;
// Delay between the kFreeStart announcement and round 1's t0: covers the
// announcement fan-out so every node starts near-aligned.
constexpr SimDuration kStartCushion = 300 * kMillisecond;
// Deadline for the peer mesh to reach every governor before starting.
constexpr SimDuration kMeshDeadline = 5 * kSecond;
// Respawn attempts per restart point before the victim is left dead.
constexpr std::uint32_t kRestartAttempts = 3;
// Bound on every control RPC: a hung node is marked dead, not waited on.
constexpr std::uint64_t kRpcTimeoutUs = 10'000'000;

}  // namespace

bool parse_crash_plan(const std::string& spec, CrashPlan& plan) {
  const std::size_t at = spec.find('@');
  const std::size_t colon = spec.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos || at == 0 ||
      colon <= at + 1 || colon + 1 >= spec.size()) {
    return false;
  }
  try {
    std::size_t used = 0;
    plan.victim = std::stoul(spec.substr(0, at), &used);
    if (used != at) return false;
    const std::string kill = spec.substr(at + 1, colon - at - 1);
    plan.kill_round = std::stoul(kill, &used);
    if (used != kill.size()) return false;
    const std::string restart = spec.substr(colon + 1);
    plan.restart_round = std::stoul(restart, &used);
    if (used != restart.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  return plan.kill_round > 0 && plan.restart_round > plan.kill_round;
}

void validate_crash_plans(const std::vector<CrashPlan>& plans,
                          std::size_t governors, Round rounds) {
  std::vector<bool> seen(governors, false);
  for (const CrashPlan& p : plans) {
    if (p.victim >= governors) {
      throw ConfigError("crash plan: victim " + std::to_string(p.victim) +
                        " out of range (" + std::to_string(governors) +
                        " governors)");
    }
    if (seen[p.victim]) {
      throw ConfigError("crash plan: victim " + std::to_string(p.victim) +
                        " scheduled twice");
    }
    seen[p.victim] = true;
    if (p.kill_round == 0 || p.kill_round > rounds) {
      throw ConfigError("crash plan: kill round " +
                        std::to_string(p.kill_round) + " outside [1, " +
                        std::to_string(rounds) + "]");
    }
    if (p.restart_round <= p.kill_round) {
      throw ConfigError("crash plan: restart round " +
                        std::to_string(p.restart_round) +
                        " not after kill round " +
                        std::to_string(p.kill_round));
    }
  }
}

std::size_t min_live_governors(const std::vector<CrashPlan>& plans,
                               std::size_t governors, Round rounds) {
  std::size_t min_live = governors;
  for (Round r = 1; r <= rounds; ++r) {
    std::size_t dead = 0;
    for (const CrashPlan& p : plans) {
      if (p.kill_round <= r && r < p.restart_round) ++dead;
    }
    min_live = std::min(min_live, governors - dead);
  }
  return min_live;
}

sim::ScenarioConfig free_run_config(sim::ScenarioConfig base) {
  base.governor.reliable_delivery = true;
  if (base.governor.watchdog_rounds == 0) base.governor.watchdog_rounds = 2;
  // Audits would need mid-round reveal RPCs riding the self-driving
  // schedule; cross-shard traffic is meaningless with one committee.
  base.audit_probability = 0.0;
  base.cross_shard_probability = 0.0;
  // The protocol's phase windows assume every message lands within Delta.
  // On real sockets the wire is microseconds, but a single-threaded node
  // verifying a large block holds its loop for tens of milliseconds, and a
  // VRF announcement delayed past a peer's 2-Delta election deadline splits
  // the leader election — a fork. Widen Delta so real scheduling satisfies
  // the synchrony bound with margin; the reference simulation runs the same
  // derived config, so the convergence contract stays aligned.
  if (base.latency.max_delay < 50 * kMillisecond) {
    base.latency.max_delay = 50 * kMillisecond;
  }
  return base;
}

sim::ScenarioConfig free_run_normalized(sim::ScenarioConfig config) {
  sim::normalize_config(config);
  sim::require_cluster_runnable(config);
  if (!config.governor.reliable_delivery) {
    throw ConfigError(
        "free-run: governor.reliable_delivery is required (derive the config "
        "with free_run_config: no cross-process atomic-broadcast sequencer "
        "exists off the lockstep plane)");
  }
  return config;
}

runtime::TcpTransport::Options free_run_mesh_options(
    const sim::ScenarioConfig& config) {
  runtime::TcpTransport::Options opts;
  opts.max_delay = config.latency.max_delay;
  // A crashed peer's link must heal well inside the ReliableChannel retry
  // ladder, so the re-dial schedule is much tighter than the deployment
  // defaults (rounds are hundreds of milliseconds, not seconds).
  opts.auto_reconnect = true;
  opts.reconnect_base = 25 * kMillisecond;
  opts.reconnect_max = 250 * kMillisecond;
  return opts;
}

FreeRunDriver::FreeRunDriver(sim::ScenarioConfig config, LocalCluster& cluster,
                             std::vector<CrashPlan> plans, Round grace_rounds)
    : config_(free_run_normalized(std::move(config))),
      cluster_(cluster),
      plans_(std::move(plans)),
      grace_rounds_(grace_rounds),
      rng_(config_.seed),
      model_(sim::SystemModel::build(config_, Rng(config_.seed))),
      transport_(loop_, sim::config_genesis(config_),
                 free_run_mesh_options(config_)),
      upload_group_(transport_, model_.directory.governor_nodes()),
      oracle_(config_.validation_cost),
      conns_(cluster.take_conns()) {
  if (conns_.size() != config_.topology.governors) {
    throw ConfigError("free-run observer: " + std::to_string(conns_.size()) +
                      " control connections for " +
                      std::to_string(config_.topology.governors) +
                      " governors");
  }
  validate_crash_plans(plans_, conns_.size(), config_.rounds);
  alive_.assign(conns_.size(), true);
  incarnations_.assign(conns_.size(), 0);
  last_serial_.assign(conns_.size(), 0);
  report_.degradation.min_live = conns_.size();
  for (auto& conn : conns_) conn->set_timeout(kRpcTimeoutUs);

  // Forward every ground-truth registration to the node oracles. The hook
  // runs inside Provider::submit, before the transaction leaves the
  // observer, and waits for every node's acknowledgement: the mesh does not
  // share the control socket's FIFO (and a proxy may stall the latter), so
  // an unacknowledged truth could arrive after the upload it describes.
  oracle_.set_register_hook([this](const ledger::TxId& id, bool valid) {
    const std::vector<Bytes> truth = {encode_register_tx({id, valid})};
    for (std::size_t i = 0; i < conns_.size(); ++i) register_truths(i, truth);
  });

  // Providers and collectors live here, on the observer's loop, built with
  // the same identities and rng salts as Wiring builds them — the traffic
  // pattern matches the simulated reference run statistically.
  const auto& topo = config_.topology;
  for (std::size_t i = 0; i < topo.providers; ++i) {
    const ProviderId id(static_cast<std::uint32_t>(i));
    provider_ctxs_.emplace_back(model_.directory.node_of(id), transport_,
                                rng_.derive(sim::salt::provider(i)));
    providers_.emplace_back(id, provider_ctxs_.back(),
                            std::move(model_.provider_keys[i]), *model_.im,
                            oracle_, model_.directory, config_.providers_active,
                            config_.governor.reliable_delivery);
    transport_.host(model_.directory.node_of(id),
                    [this, i](const runtime::Message& m) {
                      providers_[i].on_message(m);
                    });
  }
  for (std::size_t i = 0; i < topo.collectors; ++i) {
    const CollectorId id(static_cast<std::uint32_t>(i));
    const protocol::CollectorBehavior behavior =
        config_.behaviors.empty()
            ? protocol::CollectorBehavior::honest()
            : config_.behaviors[i % config_.behaviors.size()];
    collector_ctxs_.emplace_back(model_.directory.node_of(id), transport_,
                                 rng_.derive(sim::salt::collector(i)));
    collectors_.emplace_back(id, collector_ctxs_.back(),
                             std::move(model_.collector_keys[i]), *model_.im,
                             oracle_, model_.directory, upload_group_, behavior,
                             config_.governor.reliable_delivery);
    transport_.host(model_.directory.node_of(id),
                    [this, i](const runtime::Message& m) {
                      collectors_[i].on_message(m);
                    });
  }
  // A healed node link refreshes every local channel aimed at it.
  transport_.set_reconnect_hook([this](NodeId peer) {
    for (auto& p : providers_) p.on_peer_reconnected(peer);
    for (auto& c : collectors_) c.on_peer_reconnected(peer);
  });
  for (std::size_t i = 0; i < topo.governors; ++i) {
    transport_.connect(static_cast<std::uint16_t>(cluster_.peer_base() + i));
  }
}

FreeRunDriver::~FreeRunDriver() = default;

std::size_t FreeRunDriver::live_count() const {
  std::size_t live = 0;
  for (const bool a : alive_) {
    if (a) ++live;
  }
  return live;
}

void FreeRunDriver::note_liveness() {
  DegradationReport& d = report_.degradation;
  const std::size_t live = live_count();
  d.min_live = std::min(d.min_live, live);
  if (live < election_quorum(conns_.size())) d.quorum_lost = true;
}

void FreeRunDriver::mark_dead(std::size_t index) {
  if (!alive_[index]) return;
  alive_[index] = false;
  conns_[index].reset();
  note_liveness();
}

void FreeRunDriver::register_truths(std::size_t index,
                                    const std::vector<Bytes>& truths) {
  if (!alive_[index] || conns_[index] == nullptr) return;
  try {
    // Pipelined: every frame goes out before the first acknowledgement is
    // read, so a batch costs one round trip.
    for (const Bytes& t : truths) {
      conns_[index]->send_frame(
          static_cast<std::uint16_t>(ClusterPacket::kRegisterTx), t);
    }
    for (std::size_t k = 0; k < truths.size(); ++k) {
      if (conns_[index]->recv_frame().type !=
          static_cast<std::uint16_t>(ClusterPacket::kDone)) {
        mark_dead(index);
        return;
      }
    }
  } catch (const std::exception&) {
    mark_dead(index);
  }
}

std::optional<Bytes> FreeRunDriver::try_query(std::size_t index,
                                              ClusterPacket request,
                                              BytesView payload,
                                              ClusterPacket reply) {
  if (!alive_[index] || conns_[index] == nullptr) return std::nullopt;
  try {
    conns_[index]->send_frame(static_cast<std::uint16_t>(request), payload);
    const wire::Frame frame = conns_[index]->recv_frame();
    if (frame.type != static_cast<std::uint16_t>(reply)) {
      mark_dead(index);
      return std::nullopt;
    }
    return frame.payload;
  } catch (const std::exception&) {
    mark_dead(index);
    return std::nullopt;
  }
}

void FreeRunDriver::start_nodes() {
  // The observer mesh must reach every governor before round 1: a provider
  // whose first submission races the welcome exchange only costs latency,
  // but starting the schedule blind would skew the whole first round.
  const std::vector<NodeId>& governors = model_.directory.governor_nodes();
  const bool reached =
      loop_.run_until(loop_.now() + kMeshDeadline, [&] {
        return std::all_of(governors.begin(), governors.end(),
                           [&](NodeId g) { return transport_.reaches(g); });
      });
  if (!reached) {
    throw NetError("free-run: peer mesh did not reach every governor node");
  }
  round_start_ = loop_.now() + kStartCushion;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    FreeStart s;
    s.first_round = 1;
    // Re-derived per node: each one measures the delay from its own receive
    // instant, so the fan-out time of earlier announcements cancels out.
    s.start_delay = round_start_ - loop_.now();
    if (!try_query(i, ClusterPacket::kFreeStart, encode_free_start(s),
                   ClusterPacket::kDone)) {
      throw NetError("free-run: node " + std::to_string(i) +
                     " rejected the start announcement");
    }
  }
}

void FreeRunDriver::inject_workload(Round round) {
  // The simulation's own draws, so the traffic the reference run saw is
  // reproduced tx for tx; only the delivery fabric differs. Submissions are
  // spread at the simulation's 1 ms spacing as loop timers.
  SimTime at = loop_.now();
  for (sim::TxDraw& d : sim::draw_workload(config_, rng_, round, model_.router,
                                           model_.directory)) {
    loop_.schedule_at(at, [this, draw = std::move(d)]() mutable {
      sim::submit_draw(providers_[draw.provider], model_.directory, std::move(draw));
    });
    at += 1 * kMillisecond;
  }
}

void FreeRunDriver::kill_due_victims() {
  for (const CrashPlan& plan : plans_) {
    if (round_ != plan.kill_round || !alive_[plan.victim]) continue;
    // SIGKILL mid-round: the victim's in-memory state (and its peer mesh
    // endpoint) vanish; survivors' channels retransmit into the gap.
    cluster_.kill(plan.victim);
    mark_dead(plan.victim);
    if (report_.killed_at == 0) report_.killed_at = loop_.now();
  }
}

void FreeRunDriver::respawn_victim(std::size_t victim) {
  const std::uint32_t incarnation = ++incarnations_[victim];
  std::unique_ptr<SyncConn> conn;
  for (std::uint32_t a = 0; a < kRestartAttempts && conn == nullptr; ++a) {
    ++report_.restart_attempts;
    try {
      conn = cluster_.respawn(victim, incarnation);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "free-run: respawn of node %zu failed: %s\n",
                   victim, e.what());
    }
  }
  if (conn == nullptr) return;  // stays dead; the convergence check fails
  conn->set_timeout(kRpcTimeoutUs);
  conns_[victim] = std::move(conn);
  alive_[victim] = true;
  // Fresh process, empty oracle replica: replay the ground truth before the
  // catch-up sync can validate anything.
  std::vector<Bytes> truths;
  truths.reserve(oracle_.truth().size());
  for (const auto& [id, valid] : oracle_.truth()) {
    truths.push_back(encode_register_tx({id, valid}));
  }
  register_truths(victim, truths);
  if (!alive_[victim]) return;
  // Point the node at the next boundary it can realistically make; it runs
  // its chain catch-up in the meantime and rejoins the election there.
  FreeStart s;
  SimTime start = round_start_;
  Round first = round_;
  const SimTime earliest = loop_.now() + 50 * kMillisecond;
  while (start < earliest) {
    start += model_.timing.round_span;
    ++first;
  }
  s.first_round = first;
  s.start_delay = start - loop_.now();
  if (!try_query(victim, ClusterPacket::kFreeStart, encode_free_start(s),
                 ClusterPacket::kDone)) {
    return;  // marked dead
  }
  report_.rejoined_at = loop_.now();
  report_.degradation.last_restart_round = round_;
  note_liveness();
}

void FreeRunDriver::end_round_checks() {
  std::uint64_t max_serial = 0;
  std::uint64_t min_serial = std::numeric_limits<std::uint64_t>::max();
  std::optional<HeadInfo> ref;
  bool all_same = true;
  report_.node_stats.assign(conns_.size(), FreeRunStats{});
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (!alive_[i]) {
      all_same = false;
      continue;
    }
    const auto bytes =
        try_query(i, ClusterPacket::kQueryFreeStats, {}, ClusterPacket::kFreeStats);
    if (!bytes) {
      all_same = false;
      continue;
    }
    const FreeRunStats s = decode_free_stats(*bytes);
    report_.node_stats[i] = s;
    if (s.head.serial < last_serial_[i]) report_.monotone_ok = false;
    last_serial_[i] = s.head.serial;
    max_serial = std::max(max_serial, s.head.serial);
    min_serial = std::min(min_serial, s.head.serial);
    if (!ref) {
      ref = s.head;
    } else if (s.head.serial != ref->serial || s.head.hash != ref->hash ||
               s.head.committed_txs != ref->committed_txs) {
      all_same = false;
    }
  }
  // Common-prefix probe at the lowest live head: every node already holding
  // that serial must report the same block hash, this round and forever.
  if (min_serial != std::numeric_limits<std::uint64_t>::max() &&
      min_serial > 0) {
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!alive_[i]) continue;
      const auto bytes = try_query(i, ClusterPacket::kQueryBlockAt,
                                   encode_block_at(min_serial),
                                   ClusterPacket::kBlockHash);
      if (!bytes) continue;
      const BlockHashInfo info = decode_block_hash(*bytes);
      if (!info.found) continue;
      const auto [it, inserted] = seen_hashes_.try_emplace(min_serial, info.hash);
      if (!inserted && it->second != info.hash) report_.prefix_ok = false;
    }
  }
  // Observer-side stall detection: a full round with no serial advance
  // anywhere spans the degradation window even if node counters were lost
  // with a crash.
  if (max_serial <= last_max_serial_) {
    DegradationReport& d = report_.degradation;
    if (d.stall_first == 0) d.stall_first = loop_.now();
    d.stall_last = loop_.now();
  }
  last_max_serial_ = std::max(last_max_serial_, max_serial);

  if (!report_.converged && all_same && ref && ref->serial > 0 &&
      live_count() == conns_.size() && round_ >= config_.rounds) {
    report_.converged = true;
    report_.converged_round = round_;
    report_.head_serial = ref->serial;
    report_.committed_txs = ref->committed_txs;
    report_.head_hash_hex = to_hex(view(ref->hash));
  }
}

void FreeRunDriver::run_round() {
  ++round_;
  const SimTime t0 = round_start_;
  const protocol::RoundTiming& timing = model_.timing;
  for (auto& p : providers_) p.arm_round(t0, timing);
  // Respawns due at this boundary happen before the round's traffic: the
  // returning governor syncs during the round and rejoins at the next
  // aligned boundary.
  for (const CrashPlan& plan : plans_) {
    if (round_ == plan.restart_round && !alive_[plan.victim]) {
      respawn_victim(plan.victim);
    }
  }
  loop_.run_until(t0 + timing.workload_offset);
  kill_due_victims();
  inject_workload(round_);
  loop_.run_until(t0 + timing.round_span);
  end_round_checks();
  round_start_ = t0 + timing.round_span;
}

void FreeRunDriver::shutdown_nodes() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (!alive_[i] || conns_[i] == nullptr) continue;
    try {
      conns_[i]->send_frame(static_cast<std::uint16_t>(ClusterPacket::kShutdown),
                            Bytes{});
      (void)conns_[i]->recv_frame();
    } catch (const std::exception&) {
      cluster_.kill(i);  // unresponsive: do not wait on its exit
    }
    conns_[i].reset();
    const int status = cluster_.wait_exit(i);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "free-run: node %zu exited abnormally (status %d)\n",
                   i, status);
    }
  }
}

FreeRunReport FreeRunDriver::run() {
  // Reference side of the tolerance check: the identical config, simulated
  // in-process on the deterministic event loop.
  {
    const sim::RunResult ref = sim::simulate_run(config_);
    report_.reference_txs = ref.summary.chain_valid_txs +
                            ref.summary.chain_unchecked_txs +
                            ref.summary.chain_argued_txs;
  }
  start_nodes();
  const Round configured = static_cast<Round>(config_.rounds);
  while (round_ < configured + grace_rounds_ && !report_.converged) {
    run_round();
  }
  report_.rounds_run = round_;
  std::uint64_t stalled = 0;
  for (const FreeRunStats& s : report_.node_stats) stalled += s.stalled_events;
  report_.degradation.stalled_events = stalled;
  if (report_.converged && report_.degradation.last_restart_round > 0) {
    report_.degradation.rounds_to_recover =
        report_.converged_round - report_.degradation.last_restart_round;
  }
  // The committed-tx contract scales the reference to the rounds actually
  // run: grace rounds keep injecting workload, so a recovered cluster that
  // needed them commits proportionally more.
  const double scale =
      config_.rounds > 0
          ? static_cast<double>(report_.rounds_run) / config_.rounds
          : 1.0;
  const double expected = static_cast<double>(report_.reference_txs) * scale;
  report_.tolerance_lo = static_cast<std::uint64_t>(expected * kToleranceLo);
  report_.tolerance_hi = static_cast<std::uint64_t>(expected * kToleranceHi) + 1;
  report_.txs_in_tolerance = report_.converged &&
                             report_.committed_txs >= report_.tolerance_lo &&
                             report_.committed_txs <= report_.tolerance_hi;
  shutdown_nodes();
  report_.degradation.spontaneous_exits = cluster_.spontaneous_exits();
  return report_;
}

}  // namespace repchain::cluster
