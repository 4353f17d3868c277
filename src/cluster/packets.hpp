#pragma once

// Cluster RPC vocabulary: the driver/node packet types layered on the wire
// frame format (type values from 16 upward; 1..15 belong to the shared wire
// layer), plus the codecs for their payloads. The central idea is the
// Effect list: a node process runs its governor's handler synchronously and
// records every externally-visible action — sends, multicasts, atomic
// broadcasts, timer arms, trace events — in program order. The driver
// applies that list to its master event loop in the same order, which is
// exactly the order a locally-hosted governor would have performed them in,
// so the lockstep replay stays bit-identical to the simulation.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "ledger/block.hpp"
#include "ledger/transaction.hpp"
#include "runtime/message.hpp"
#include "runtime/trace.hpp"

namespace repchain::cluster {

/// RPC packet types. Driver->node requests carry the node's virtual clock;
/// every request that can execute protocol code gets a kDone reply carrying
/// the recorded effects. Queries (kQuery*, kSnapshot) are pure reads with
/// typed replies. kRegisterTx is fire-and-forget in lockstep — the socket's
/// FIFO puts it ahead of any later delivery that could validate the
/// transaction — and answered with kDone by a free-running node, whose mesh
/// traffic does not share that FIFO. Numbers are wire-stable: a gap is a
/// retired type, never to be reused.
enum class ClusterPacket : std::uint16_t {
  // driver -> node
  kRegisterTx = 16,  // ground-truth forwarding
  kDeliver = 17,     // network delivery for the hosted governor
  kFireTimer = 18,   // a timer the node armed earlier is due
  kArmRound = 19,    // Governor::arm_round(round, t0, timing)
  kReveal = 20,      // audit: reveal_unchecked(txid)
  kQueryState = 21,
  kSnapshot = 24,  // end-of-run chain + metrics
  kShutdown = 25,
  kFreeStart = 28,      // free-run: self-drive rounds from an aligned t0
  kQueryFreeStats = 29, // free-run probe: head + liveness counters
  kQueryBlockAt = 30,   // fork probe: hash of the block at a given serial
  // node -> driver
  kDone = 32,   // effects recorded while serving the request
  kState = 33,  // GovernorState
  kSnapshotData = 36,  // GovernorSnapshotData
  kFreeStats = 38,     // FreeRunStats
  kBlockHash = 39,     // BlockHashInfo
};

/// One externally-visible action recorded by a node while running governor
/// code, in program order. The driver replays kSend/kMulticast through its
/// SimNetwork (drawing link delays there, in the same order a local
/// governor would have), kBroadcast through the shared sequencer,
/// kArmTimer onto the master event loop, and kTrace into the observer.
struct Effect {
  enum class Kind : std::uint8_t {
    kSend = 1,
    kMulticast = 2,
    kBroadcast = 3,
    kArmTimer = 4,
    kTrace = 5,
  };

  Kind kind = Kind::kSend;
  // kSend / kMulticast / kBroadcast
  NodeId from;
  runtime::MsgKind msg_kind = runtime::MsgKind::kTest;
  Bytes payload;
  std::vector<NodeId> to;  // one entry for kSend; the list for kMulticast
  // kArmTimer
  SimTime at = 0;
  std::uint64_t timer_id = 0;
  // kTrace
  runtime::TraceEvent trace{};
};

[[nodiscard]] Bytes encode_effects(const std::vector<Effect>& effects);
[[nodiscard]] std::vector<Effect> decode_effects(BytesView data);

/// kQueryState reply: everything the lockstep driver reads of a node's
/// state — the counters Observation probes each round, the reward sample's
/// head block and revenue split, and the audit's unrevealed draws.
struct GovernorState {
  std::optional<GovernorId> leader;
  double expected_loss = 0.0;
  std::uint64_t argues_accepted = 0;
  std::uint64_t validations = 0;  // the node-local oracle's count
  bool chain_empty = true;
  std::uint64_t head_valid_txs = 0;  // head-block txs not kUncheckedInvalid
  std::vector<std::pair<CollectorId, double>> shares;  // revenue_shares()
  std::vector<ledger::TxId> unrevealed;  // unrevealed_unchecked()
};

[[nodiscard]] Bytes encode_state(const GovernorState& s);
[[nodiscard]] GovernorState decode_state(BytesView data);

/// A node's chain-head identity, carried inside FreeRunStats: the free-run
/// convergence contract compares it across survivors and restarted nodes.
struct HeadInfo {
  std::uint64_t serial = 0;        // head block serial (0 = empty chain)
  crypto::Hash256 hash{};          // H(head block)
  std::uint64_t committed_txs = 0; // tx records across the whole chain
  std::uint32_t incarnation = 0;   // the node's restart count
};

[[nodiscard]] Bytes encode_head(const HeadInfo& h);
[[nodiscard]] HeadInfo decode_head(BytesView data);

/// kSnapshotData reply: everything the end-of-run summary needs.
struct GovernorSnapshotData {
  std::vector<ledger::Block> blocks;
  double expected_loss = 0.0;
  double realized_loss = 0.0;
  std::uint64_t mistakes = 0;
};

[[nodiscard]] Bytes encode_snapshot(const GovernorSnapshotData& s);
[[nodiscard]] GovernorSnapshotData decode_snapshot(BytesView data);

// --- Small request/reply payloads -------------------------------------------

struct RegisterTx {
  ledger::TxId id{};
  bool valid = false;
};

[[nodiscard]] Bytes encode_register_tx(const RegisterTx& r);
[[nodiscard]] RegisterTx decode_register_tx(BytesView data);

/// kDeliver: the node's virtual clock plus the canonical message envelope.
[[nodiscard]] Bytes encode_deliver(SimTime now, const runtime::Message& msg);
[[nodiscard]] std::pair<SimTime, runtime::Message> decode_deliver(BytesView data);

/// kFireTimer: clock + the timer_id from an earlier kArmTimer effect.
[[nodiscard]] Bytes encode_fire_timer(SimTime now, std::uint64_t timer_id);
[[nodiscard]] std::pair<SimTime, std::uint64_t> decode_fire_timer(BytesView data);

struct ArmRound {
  SimTime now = 0;
  Round round = 0;
  SimTime t0 = 0;
};

[[nodiscard]] Bytes encode_arm_round(const ArmRound& a);
[[nodiscard]] ArmRound decode_arm_round(BytesView data);

/// kReveal: clock + the tx to reveal.
[[nodiscard]] Bytes encode_reveal(SimTime now, const ledger::TxId& id);
[[nodiscard]] std::pair<SimTime, ledger::TxId> decode_reveal(BytesView data);

// --- Free-running mode -------------------------------------------------------

/// kFreeStart: arm self-driving rounds. Each process measures time on its
/// own CLOCK_MONOTONIC epoch, so absolute times cannot cross the wire; the
/// driver instead announces "round `first_round` begins `start_delay`
/// microseconds after you receive this", which every node converts to its
/// local clock. Skew is one loopback RPC (sub-millisecond) against phase
/// offsets keyed to Delta (milliseconds).
struct FreeStart {
  Round first_round = 1;
  SimDuration start_delay = 0;
};

[[nodiscard]] Bytes encode_free_start(const FreeStart& s);
[[nodiscard]] FreeStart decode_free_start(BytesView data);

/// kFreeStats reply: the head identity plus the liveness counters a
/// free-running observer needs for the convergence contract and the
/// degradation report (watchdog trips, stall events, channel exhaustion).
struct FreeRunStats {
  HeadInfo head;
  std::uint64_t current_round = 0;
  std::uint64_t rounds_started = 0;
  std::uint64_t stalled_events = 0;     // kRoundStalled traces emitted
  std::uint64_t watchdog_trips = 0;
  std::uint64_t delivery_failures = 0;  // reliable-channel budget exhaustion
  std::uint64_t reconnects = 0;         // transport links re-established
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_synced = 0;
};

[[nodiscard]] Bytes encode_free_stats(const FreeRunStats& s);
[[nodiscard]] FreeRunStats decode_free_stats(BytesView data);

/// kQueryBlockAt request: a block serial. Reply kBlockHash: whether the
/// node's chain holds that serial yet and, if so, the block's hash — the
/// observer cross-checks these across nodes to prove common-prefix (no
/// fork) without shipping whole blocks.
[[nodiscard]] Bytes encode_block_at(std::uint64_t serial);
[[nodiscard]] std::uint64_t decode_block_at(BytesView data);

struct BlockHashInfo {
  std::uint64_t serial = 0;
  bool found = false;
  crypto::Hash256 hash{};
};

[[nodiscard]] Bytes encode_block_hash(const BlockHashInfo& b);
[[nodiscard]] BlockHashInfo decode_block_hash(BytesView data);

}  // namespace repchain::cluster
