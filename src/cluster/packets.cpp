#include "cluster/packets.hpp"

#include <string>

#include "common/serial.hpp"
#include "wire/codec.hpp"
#include "wire/protocol_error.hpp"

namespace repchain::cluster {
namespace {

/// Decode with the wire layer's error discipline: serial truncation maps to
/// kTruncatedPayload, leftover bytes to kTrailingBytes.
template <typename Fn>
auto decode_exact(BytesView data, Fn&& fn) {
  BinaryReader r(data);
  try {
    auto value = fn(r);
    if (r.remaining() != 0) {
      throw wire::WireError(wire::ProtocolError::kTrailingBytes,
                            std::to_string(r.remaining()) +
                                " bytes after the last field");
    }
    return value;
  } catch (const wire::WireError&) {
    throw;
  } catch (const DecodeError& e) {
    throw wire::WireError(wire::ProtocolError::kTruncatedPayload, e.what());
  }
}

void encode_effect(BinaryWriter& w, const Effect& e) {
  w.u8(static_cast<std::uint8_t>(e.kind));
  switch (e.kind) {
    case Effect::Kind::kSend:
    case Effect::Kind::kMulticast:
    case Effect::Kind::kBroadcast:
      w.u32(e.from.value());
      w.u16(static_cast<std::uint16_t>(e.msg_kind));
      w.bytes(e.payload);
      w.u32(static_cast<std::uint32_t>(e.to.size()));
      for (const NodeId n : e.to) w.u32(n.value());
      break;
    case Effect::Kind::kArmTimer:
      w.u64(e.at);
      w.u64(e.timer_id);
      break;
    case Effect::Kind::kTrace:
      w.bytes(wire::encode_trace(e.trace));
      break;
  }
}

Effect decode_effect(BinaryReader& r) {
  Effect e;
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 5) {
    throw wire::WireError(wire::ProtocolError::kBadPayload,
                          "effect kind " + std::to_string(kind));
  }
  e.kind = static_cast<Effect::Kind>(kind);
  switch (e.kind) {
    case Effect::Kind::kSend:
    case Effect::Kind::kMulticast:
    case Effect::Kind::kBroadcast: {
      e.from = NodeId(r.u32());
      e.msg_kind = static_cast<runtime::MsgKind>(r.u16());
      e.payload = r.bytes();
      const std::uint32_t n = r.u32();
      r.expect_count(n, 4);
      e.to.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) e.to.emplace_back(r.u32());
      if (e.kind == Effect::Kind::kSend && e.to.size() != 1) {
        throw wire::WireError(wire::ProtocolError::kBadPayload,
                              "send effect needs exactly one destination");
      }
      break;
    }
    case Effect::Kind::kArmTimer:
      e.at = r.u64();
      e.timer_id = r.u64();
      break;
    case Effect::Kind::kTrace:
      e.trace = wire::decode_trace(r.bytes());
      break;
  }
  return e;
}

HeadInfo read_head(BinaryReader& r) {
  HeadInfo h;
  h.serial = r.u64();
  h.hash = r.raw_array<32>();
  h.committed_txs = r.u64();
  h.incarnation = r.u32();
  return h;
}

}  // namespace

Bytes encode_effects(const std::vector<Effect>& effects) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(effects.size()));
  for (const Effect& e : effects) encode_effect(w, e);
  return std::move(w).take();
}

std::vector<Effect> decode_effects(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    const std::uint32_t n = r.u32();
    r.expect_count(n, 1);
    std::vector<Effect> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(decode_effect(r));
    return out;
  });
}

Bytes encode_state(const sim::GovernorState& s) {
  BinaryWriter w;
  w.boolean(s.leader.has_value());
  w.u32(s.leader ? s.leader->value() : 0);
  w.f64(s.expected_loss);
  w.f64(s.realized_loss);
  w.u64(s.mistakes);
  w.u64(s.argues_accepted);
  w.u64(s.validations);
  w.u64(s.head_serial);
  w.raw(view(s.head_hash));
  w.u64(s.head_valid_txs);
  w.u32(static_cast<std::uint32_t>(s.shares.size()));
  for (const auto& [c, share] : s.shares) {
    w.u32(c.value());
    w.f64(share);
  }
  w.u32(static_cast<std::uint32_t>(s.unrevealed.size()));
  for (const ledger::TxId& id : s.unrevealed) w.raw(view(id));
  return std::move(w).take();
}

sim::GovernorState decode_state(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    sim::GovernorState s;
    const bool has_leader = r.boolean();
    const std::uint32_t leader = r.u32();
    if (has_leader) s.leader = GovernorId(leader);
    s.expected_loss = r.f64();
    s.realized_loss = r.f64();
    s.mistakes = r.u64();
    s.argues_accepted = r.u64();
    s.validations = r.u64();
    s.head_serial = r.u64();
    s.head_hash = r.raw_array<32>();
    s.head_valid_txs = r.u64();
    const std::uint32_t shares = r.u32();
    r.expect_count(shares, 12);
    s.shares.reserve(shares);
    for (std::uint32_t i = 0; i < shares; ++i) {
      const CollectorId c(r.u32());
      const double share = r.f64();
      s.shares.emplace_back(c, share);
    }
    const std::uint32_t unrevealed = r.u32();
    r.expect_count(unrevealed, 32);
    s.unrevealed.reserve(unrevealed);
    for (std::uint32_t i = 0; i < unrevealed; ++i) {
      s.unrevealed.push_back(r.raw_array<32>());
    }
    return s;
  });
}

Bytes encode_snapshot(const std::vector<ledger::Block>& blocks) {
  BinaryWriter w;
  w.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const ledger::Block& b : blocks) w.bytes(b.encode());
  return std::move(w).take();
}

std::vector<ledger::Block> decode_snapshot(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    const std::uint32_t n = r.u32();
    r.expect_count(n, 4);
    std::vector<ledger::Block> blocks;
    blocks.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      blocks.push_back(ledger::Block::decode(r.bytes()));
    }
    return blocks;
  });
}

Bytes encode_head(const HeadInfo& h) {
  BinaryWriter w;
  w.u64(h.serial);
  w.raw(view(h.hash));
  w.u64(h.committed_txs);
  w.u32(h.incarnation);
  return std::move(w).take();
}

HeadInfo decode_head(BytesView data) {
  return decode_exact(data, read_head);
}

Bytes encode_register_tx(const RegisterTx& reg) {
  BinaryWriter w;
  w.raw(view(reg.id));
  w.boolean(reg.valid);
  return std::move(w).take();
}

RegisterTx decode_register_tx(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    RegisterTx reg;
    reg.id = r.raw_array<32>();
    reg.valid = r.boolean();
    return reg;
  });
}

Bytes encode_deliver(SimTime now, const runtime::Message& msg) {
  BinaryWriter w;
  w.u64(now);
  w.raw(wire::encode_message(msg));
  return std::move(w).take();
}

std::pair<SimTime, runtime::Message> decode_deliver(BytesView data) {
  if (data.size() < 8) {
    throw wire::WireError(wire::ProtocolError::kTruncatedPayload,
                          "deliver payload shorter than its clock");
  }
  BinaryReader r(data);
  const SimTime now = r.u64();
  return {now, wire::decode_message(data.subspan(8))};
}

Bytes encode_fire_timer(SimTime now, std::uint64_t timer_id) {
  BinaryWriter w;
  w.u64(now);
  w.u64(timer_id);
  return std::move(w).take();
}

std::pair<SimTime, std::uint64_t> decode_fire_timer(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    const SimTime now = r.u64();
    const std::uint64_t id = r.u64();
    return std::pair<SimTime, std::uint64_t>{now, id};
  });
}

Bytes encode_arm_round(const ArmRound& a) {
  BinaryWriter w;
  w.u64(a.now);
  w.u64(a.round);
  w.u64(a.t0);
  return std::move(w).take();
}

ArmRound decode_arm_round(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    ArmRound a;
    a.now = r.u64();
    a.round = r.u64();
    a.t0 = r.u64();
    return a;
  });
}

Bytes encode_reveal(SimTime now, const ledger::TxId& id) {
  BinaryWriter w;
  w.u64(now);
  w.raw(view(id));
  return std::move(w).take();
}

std::pair<SimTime, ledger::TxId> decode_reveal(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    const SimTime now = r.u64();
    const ledger::TxId id = r.raw_array<32>();
    return std::pair<SimTime, ledger::TxId>{now, id};
  });
}

Bytes encode_free_start(const FreeStart& s) {
  BinaryWriter w;
  w.u64(s.first_round);
  w.u64(static_cast<std::uint64_t>(s.start_delay));
  return std::move(w).take();
}

FreeStart decode_free_start(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    FreeStart s;
    s.first_round = r.u64();
    s.start_delay = static_cast<SimDuration>(r.u64());
    return s;
  });
}

Bytes encode_free_stats(const FreeRunStats& s) {
  BinaryWriter w;
  w.raw(encode_head(s.head));
  w.u64(s.current_round);
  w.u64(s.rounds_started);
  w.u64(s.stalled_events);
  w.u64(s.watchdog_trips);
  w.u64(s.delivery_failures);
  w.u64(s.reconnects);
  w.u64(s.blocks_accepted);
  w.u64(s.blocks_synced);
  return std::move(w).take();
}

FreeRunStats decode_free_stats(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    FreeRunStats s;
    s.head = read_head(r);
    s.current_round = r.u64();
    s.rounds_started = r.u64();
    s.stalled_events = r.u64();
    s.watchdog_trips = r.u64();
    s.delivery_failures = r.u64();
    s.reconnects = r.u64();
    s.blocks_accepted = r.u64();
    s.blocks_synced = r.u64();
    return s;
  });
}

Bytes encode_block_at(std::uint64_t serial) {
  BinaryWriter w;
  w.u64(serial);
  return std::move(w).take();
}

std::uint64_t decode_block_at(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) { return r.u64(); });
}

Bytes encode_block_hash(const BlockHashInfo& b) {
  BinaryWriter w;
  w.u64(b.serial);
  w.boolean(b.found);
  w.raw(view(b.hash));
  return std::move(w).take();
}

BlockHashInfo decode_block_hash(BytesView data) {
  return decode_exact(data, [](BinaryReader& r) {
    BlockHashInfo b;
    b.serial = r.u64();
    b.found = r.boolean();
    b.hash = r.raw_array<32>();
    return b;
  });
}

}  // namespace repchain::cluster
