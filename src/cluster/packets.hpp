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
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "ledger/block.hpp"
#include "ledger/transaction.hpp"
#include "runtime/message.hpp"
#include "runtime/trace.hpp"
#include "sim/harness/observation.hpp"

namespace repchain::cluster {

/// RPC packet types. Driver->node requests carry the node's virtual clock;
/// every request that can execute protocol code gets a kDone reply carrying
/// the recorded effects. The reads (kQueryState, kSnapshot) are pure, with
/// typed replies, and both cluster modes poll nodes through them alone.
/// kRegisterTx is fire-and-forget in lockstep — the socket's FIFO puts it
/// ahead of any later delivery that could validate the transaction — and
/// answered with kDone by a free-running node, whose mesh traffic does not
/// share that FIFO. Numbers are wire-stable: a gap is a retired type, never
/// to be reused.
enum class ClusterPacket : std::uint16_t {
  // driver -> node
  kRegisterTx = 16,  // ground-truth forwarding
  kDeliver = 17,     // network delivery for the hosted governor
  kFireTimer = 18,   // a timer the node armed earlier is due
  kArmRound = 19,    // Governor::arm_round(round, t0, timing)
  kReveal = 20,      // audit: reveal_unchecked(txid)
  kQueryState = 21,
  kSnapshot = 24,  // the chain so far
  kShutdown = 25,
  kFreeStart = 28,  // free-run: self-drive rounds from an aligned t0
  // node -> driver
  kDone = 32,   // effects recorded while serving the request
  kState = 33,  // sim::GovernorState
  kSnapshotData = 36,  // the chain's blocks
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

/// kQueryState reply: the hosted governor's sim::GovernorState.
[[nodiscard]] Bytes encode_state(const sim::GovernorState& s);
[[nodiscard]] sim::GovernorState decode_state(BytesView data);

/// kSnapshotData reply: the hosted governor's chain, block by block.
[[nodiscard]] Bytes encode_snapshot(const std::vector<ledger::Block>& blocks);
[[nodiscard]] std::vector<ledger::Block> decode_snapshot(BytesView data);

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

}  // namespace repchain::cluster
