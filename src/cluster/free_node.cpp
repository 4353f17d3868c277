#include "cluster/free_node.hpp"

#include <poll.h>

#include <cstdio>
#include <string>
#include <utility>

#include "cluster/free_run.hpp"
#include "common/errors.hpp"
#include "sim/harness/spec_codec.hpp"
#include "storage/file_state_store.hpp"
#include "wire/codec.hpp"

namespace repchain::cluster {
namespace {

std::unique_ptr<storage::NodeStateStore> free_make_store(const std::string& dir) {
  if (dir.empty()) return nullptr;
  return std::make_unique<storage::FileStateStore>(dir);
}

std::uint16_t peer_port(std::uint16_t base, std::size_t index) {
  return static_cast<std::uint16_t>(base + index);
}

}  // namespace

void NoBroadcaster::broadcast(NodeId, runtime::MsgKind, const Bytes&) {
  throw NetError(
      "free-running node: atomic broadcast requested — only the reliable "
      "(per-peer channel) paths may run here");
}

void TraceCounters::on_event(const runtime::TraceEvent& ev) {
  switch (ev.kind) {
    case runtime::TraceKind::kRoundStarted:
      ++rounds_started;
      return;
    case runtime::TraceKind::kRoundStalled:
      ++stalled_events;
      std::fprintf(stderr, "free-node: round %llu stalled (%llu consecutive)\n",
                   static_cast<unsigned long long>(ev.round),
                   static_cast<unsigned long long>(ev.arg0));
      return;
    case runtime::TraceKind::kDeliveryFailed:
      ++delivery_failures;
      std::fprintf(stderr,
                   "free-node: reliable delivery exhausted (peer key %llu)\n",
                   static_cast<unsigned long long>(ev.arg0));
      return;
    default:
      return;
  }
}

FreeNodeHost::FreeNodeHost(sim::ScenarioConfig config, std::size_t governor_index,
                           std::uint16_t peer_base, const std::string& state_dir,
                           std::uint32_t incarnation)
    : config_(free_run_normalized(std::move(config))),
      index_(checked_governor_index(governor_index, config_.topology.governors)),
      incarnation_(incarnation),
      genesis_(sim::config_genesis(config_)),
      model_(sim::SystemModel::build(config_, Rng(config_.seed))),
      store_(free_make_store(state_dir)),
      transport_(loop_, genesis_, free_run_mesh_options(config_)),
      broadcaster_(model_.directory.governor_nodes()),
      oracle_(config_.validation_cost),
      ctx_(model_.directory.node_of(GovernorId(static_cast<std::uint32_t>(index_))),
           transport_, Rng(config_.seed).derive(sim::salt::governor(index_)),
           &counters_) {
  const GovernorId id(static_cast<std::uint32_t>(index_));
  protocol::GovernorConfig gc = config_.governor;
  gc.channel_epoch = incarnation_;
  governor_ = std::make_unique<protocol::Governor>(
      id, ctx_, model_.governor_keys[index_], *model_.im, oracle_,
      model_.directory, broadcaster_, gc, model_.genesis,
      model_.governor_visible[index_], store_.get());
  if (incarnation_ > 0 && store_ != nullptr) {
    // Restarted process: replay snapshot + WAL before joining the mesh; the
    // catch-up sync itself starts when the driver's kFreeStart arrives.
    governor_->recover_from_store();
  }
  if (incarnation_ > 0) transport_.set_resume(incarnation_, head().serial);
  transport_.set_trace_sink(&counters_);
  // A healed link refreshes the retry budget of every in-flight envelope
  // addressed to the returning peer — without this, a crash window longer
  // than the backoff ladder burns budget against a dead socket.
  transport_.set_reconnect_hook(
      [this](NodeId peer) { governor_->on_peer_reconnected(peer); });
  transport_.host(governor_->node(), [this](const runtime::Message& m) {
    if (!started_) {
      pre_start_.push_back(m);
      return;
    }
    governor_->on_message(m);
  });
  (void)transport_.listen(peer_port(peer_base, index_));
  // Dial every lower-indexed peer; higher-indexed peers (and the driver)
  // dial us. After a crash both halves heal: our respawn re-dials downward,
  // the survivors' auto-reconnect backoff re-dials our fresh listener.
  for (std::size_t j = 0; j < index_; ++j) transport_.connect(peer_port(peer_base, j));
}

FreeNodeHost::~FreeNodeHost() = default;

HeadInfo FreeNodeHost::head() const {
  HeadInfo h;
  h.incarnation = incarnation_;
  const ledger::ChainStore& chain = governor_->chain();
  if (chain.empty()) return h;
  h.serial = chain.head().serial;
  h.hash = chain.head_hash();
  for (const ledger::Block& b : chain.blocks()) h.committed_txs += b.txs.size();
  return h;
}

FreeRunStats FreeNodeHost::stats() const {
  FreeRunStats s;
  s.head = head();
  s.current_round = governor_->current_round();
  s.rounds_started = counters_.rounds_started;
  s.stalled_events = counters_.stalled_events;
  s.watchdog_trips = governor_->metrics().watchdog_trips;
  s.delivery_failures = counters_.delivery_failures;
  s.reconnects = transport_.stats().reconnects;
  s.blocks_accepted = governor_->metrics().blocks_accepted;
  s.blocks_synced = governor_->metrics().blocks_synced;
  return s;
}

void FreeNodeHost::handle_control(SyncConn& conn, const wire::Frame& frame) {
  switch (static_cast<ClusterPacket>(frame.type)) {
    case ClusterPacket::kRegisterTx: {
      // Acknowledged, unlike lockstep: mesh traffic does not share this
      // socket's FIFO, so the observer holds a transaction back until every
      // node has its truth.
      const RegisterTx reg = decode_register_tx(frame.payload);
      oracle_.register_tx(reg.id, reg.valid);
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kDone),
                      encode_effects({}));
      return;
    }
    case ClusterPacket::kFreeStart: {
      const FreeStart s = decode_free_start(frame.payload);
      // Every kRegisterTx the driver replayed sits ahead of this frame on
      // the control FIFO, so the oracle is complete: release the parked
      // mesh backlog before anything can screen or argue against it.
      started_ = true;
      std::vector<runtime::Message> held;
      held.swap(pre_start_);
      for (const runtime::Message& m : held) governor_->on_message(m);
      // A returning incarnation starts its chain catch-up before its first
      // self-driven round; survivors answer the sync while they keep
      // committing, and recovery holds announcements until the head checks.
      if (incarnation_ > 0) governor_->sync_chain();
      governor_->drive_rounds(s.first_round, loop_.now() + s.start_delay,
                              model_.timing);
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kDone),
                      encode_effects({}));
      return;
    }
    case ClusterPacket::kQueryFreeStats:
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kFreeStats),
                      encode_free_stats(stats()));
      return;
    case ClusterPacket::kQueryBlockAt: {
      BlockHashInfo info;
      info.serial = decode_block_at(frame.payload);
      if (const auto block = governor_->chain().retrieve(info.serial)) {
        info.found = true;
        info.hash = block->hash();
      }
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kBlockHash),
                      encode_block_hash(info));
      return;
    }
    case ClusterPacket::kShutdown:
      conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kDone),
                      encode_effects({}));
      done_ = true;
      return;
    default:
      throw wire::WireError(wire::ProtocolError::kUnknownPacket,
                            "free-running node: packet type " +
                                std::to_string(frame.type));
  }
}

void FreeNodeHost::drain_control(SyncConn& conn) {
  try {
    while (!done_) {
      const std::optional<wire::Frame> frame = conn.try_recv_frame();
      if (!frame) return;
      handle_control(conn, *frame);
    }
  } catch (const wire::WireError& e) {
    conn.send_error(e.code(), e.what());
    throw;
  } catch (const NetError&) {
    done_ = true;  // driver went away: nothing left to serve
  }
}

void FreeNodeHost::run(int fd) {
  SyncConn conn(fd);
  accept_driver(conn, genesis_, index_, governor_->node(), incarnation_,
                head().serial);

  // Serve whatever the driver pipelined behind its welcome, then hand the
  // socket to the loop.
  drain_control(conn);
  loop_.watch(conn.fd(), POLLIN, [this, &conn](short) { drain_control(conn); });
  while (!done_) {
    (void)loop_.run_until(loop_.now() + 100 * kMillisecond,
                          [this] { return done_; });
  }
  loop_.unwatch(conn.fd());
}

}  // namespace repchain::cluster
