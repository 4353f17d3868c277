// Wire + cluster-packet decoder fuzz: arbitrary byte strings and mutated
// valid encodings must be answered with a coded WireError (or a clean
// decode), never a crash or a foreign exception. A directed sweep then
// asserts coverage of the decoder-reachable slice of the ProtocolError
// enum — every code a byte stream alone can provoke is actually provoked.
// The dialogue-level codes (kUnknownPacket, kBadNodeIndex,
// kUnexpectedPacket, and kWrongGenesis/kHighVersion at admission) are
// asserted by the handshake, transport and cluster test suites instead.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "cluster/packets.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"
#include "crypto/keygen.hpp"
#include "ledger/block.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace repchain {
namespace {

using DecoderFn = std::function<void(BytesView)>;

/// Codes observed across every graceful failure in this binary; the
/// coverage test asserts the decoder-reachable codes all appear.
std::set<wire::ProtocolError>& seen_codes() {
  static std::set<wire::ProtocolError> codes;
  return codes;
}

std::vector<std::pair<const char*, DecoderFn>> decoders() {
  return {
      {"FrameReader",
       [](BytesView d) {
         wire::FrameReader reader(1 << 16);
         std::vector<wire::Frame> frames;
         reader.feed(d, frames);
       }},
      {"decode_message", [](BytesView d) { (void)wire::decode_message(d); }},
      {"decode_trace", [](BytesView d) { (void)wire::decode_trace(d); }},
      {"decode_welcome", [](BytesView d) { (void)wire::decode_welcome(d); }},
      {"decode_error", [](BytesView d) { (void)wire::decode_error(d); }},
      {"decode_effects", [](BytesView d) { (void)cluster::decode_effects(d); }},
      {"decode_state", [](BytesView d) { (void)cluster::decode_state(d); }},
      {"decode_snapshot", [](BytesView d) { (void)cluster::decode_snapshot(d); }},
      {"decode_register_tx",
       [](BytesView d) { (void)cluster::decode_register_tx(d); }},
      {"decode_deliver", [](BytesView d) { (void)cluster::decode_deliver(d); }},
      {"decode_fire_timer",
       [](BytesView d) { (void)cluster::decode_fire_timer(d); }},
      {"decode_arm_round", [](BytesView d) { (void)cluster::decode_arm_round(d); }},
      {"decode_reveal", [](BytesView d) { (void)cluster::decode_reveal(d); }},
      {"decode_free_start",
       [](BytesView d) { (void)cluster::decode_free_start(d); }},
      {"decode_free_stats",
       [](BytesView d) { (void)cluster::decode_free_stats(d); }},
      {"decode_block_at", [](BytesView d) { (void)cluster::decode_block_at(d); }},
      {"decode_block_hash",
       [](BytesView d) { (void)cluster::decode_block_hash(d); }},
  };
}

/// Pass iff the decoder returns or throws a coded WireError. (DecodeError is
/// not acceptable here: the wire layer's contract is that framing problems
/// are always reported with a ProtocolError code.)
void expect_graceful(const char* name, const DecoderFn& fn, BytesView data) {
  try {
    fn(data);
  } catch (const wire::WireError& e) {
    seen_codes().insert(e.code());
  } catch (const std::exception& e) {
    FAIL() << name << " threw non-WireError: " << e.what();
  }
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, RandomBuffersAreHandledGracefully) {
  Rng rng(GetParam() ^ 0x517eULL);
  for (const auto& [name, fn] : decoders()) {
    for (std::size_t size : {0u, 1u, 7u, 32u, 64u, 100u, 300u, 1000u}) {
      for (int i = 0; i < 20; ++i) {
        const Bytes data = rng.bytes(size);
        expect_graceful(name, fn, data);
      }
    }
  }
}

TEST_P(WireFuzz, MutatedValidEncodingsAreHandledGracefully) {
  Rng rng(GetParam() ^ 0xbeefULL);

  runtime::Message msg;
  msg.from = NodeId(1);
  msg.to = NodeId(2);
  msg.kind = runtime::MsgKind::kCollectorUpload;
  msg.payload = rng.bytes(40);
  msg.sent_at = 123;
  msg.delivered_at = 456;
  msg.seq = 3;

  runtime::TraceEvent ev;
  ev.kind = runtime::TraceKind::kProtocolError;
  ev.node = NodeId(4);
  ev.round = 2;

  wire::Welcome welcome;
  welcome.genesis[7] = 0x42;
  welcome.role = wire::Role::kNode;
  welcome.node_index = 1;
  welcome.hosted = {NodeId(9)};

  std::vector<cluster::Effect> effects;
  {
    cluster::Effect send;
    send.kind = cluster::Effect::Kind::kSend;
    send.from = NodeId(1);
    send.payload = rng.bytes(10);
    send.to = {NodeId(2)};
    cluster::Effect multi;
    multi.kind = cluster::Effect::Kind::kMulticast;
    multi.from = NodeId(1);
    multi.payload = rng.bytes(6);
    multi.to = {NodeId(2), NodeId(3)};
    cluster::Effect arm;
    arm.kind = cluster::Effect::Kind::kArmTimer;
    arm.at = 999;
    arm.timer_id = 5;
    cluster::Effect trace;
    trace.kind = cluster::Effect::Kind::kTrace;
    trace.trace = ev;
    effects = {send, multi, arm, trace};
  }

  sim::GovernorState state;
  state.leader = GovernorId(1);
  state.expected_loss = 0.25;
  state.validations = 7;
  state.head_serial = 3;
  state.head_hash[0] = 0x5a;
  state.shares = {{CollectorId(1), 0.5}, {CollectorId(2), 0.25}};
  state.unrevealed = {ledger::TxId{}, ledger::TxId{}};
  state.unrevealed[1][0] = 0x7f;

  cluster::FreeRunStats stats;
  stats.head = {.serial = 4, .committed_txs = 40, .incarnation = 1};
  stats.current_round = 5;

  crypto::SigningKey key(crypto::random_seed(rng));
  std::vector<ledger::Block> snap;
  {
    ledger::TxRecord rec;
    rec.tx = ledger::make_transaction(ProviderId(1), 1, 1, rng.bytes(8), key);
    snap.push_back(
        ledger::make_block(1, 1, crypto::Hash256{}, GovernorId(0), {rec}, key));
  }

  struct Case {
    const char* name;
    Bytes encoding;
    DecoderFn fn;
  };
  const std::vector<Case> cases = {
      {"FrameReader", wire::encode_frame(3, rng.bytes(24)),
       [](BytesView d) {
         wire::FrameReader reader(1 << 16);
         std::vector<wire::Frame> frames;
         reader.feed(d, frames);
       }},
      {"decode_message", wire::encode_message(msg),
       [](BytesView d) { (void)wire::decode_message(d); }},
      {"decode_trace", wire::encode_trace(ev),
       [](BytesView d) { (void)wire::decode_trace(d); }},
      {"decode_welcome", wire::encode_welcome(welcome),
       [](BytesView d) { (void)wire::decode_welcome(d); }},
      {"decode_error",
       wire::encode_error({wire::ProtocolError::kBadPayload, "detail"}),
       [](BytesView d) { (void)wire::decode_error(d); }},
      {"decode_effects", cluster::encode_effects(effects),
       [](BytesView d) { (void)cluster::decode_effects(d); }},
      {"decode_state", cluster::encode_state(state),
       [](BytesView d) { (void)cluster::decode_state(d); }},
      {"decode_snapshot", cluster::encode_snapshot(snap),
       [](BytesView d) { (void)cluster::decode_snapshot(d); }},
      {"decode_deliver", cluster::encode_deliver(77, msg),
       [](BytesView d) { (void)cluster::decode_deliver(d); }},
      {"decode_arm_round", cluster::encode_arm_round({10, 2, 30}),
       [](BytesView d) { (void)cluster::decode_arm_round(d); }},
      {"decode_free_start", cluster::encode_free_start({3, 250'000}),
       [](BytesView d) { (void)cluster::decode_free_start(d); }},
      {"decode_free_stats", cluster::encode_free_stats(stats),
       [](BytesView d) { (void)cluster::decode_free_stats(d); }},
      {"decode_block_at", cluster::encode_block_at(9),
       [](BytesView d) { (void)cluster::decode_block_at(d); }},
      {"decode_block_hash", cluster::encode_block_hash({3, true, {}}),
       [](BytesView d) { (void)cluster::decode_block_hash(d); }},
  };

  for (const auto& c : cases) {
    for (std::size_t len = 0; len < c.encoding.size(); ++len) {
      expect_graceful(c.name, c.fn, BytesView(c.encoding.data(), len));
    }
    for (int i = 0; i < 200; ++i) {
      Bytes mutated = c.encoding;
      mutated[rng.uniform(mutated.size())] = static_cast<std::uint8_t>(rng.next_u64());
      expect_graceful(c.name, c.fn, mutated);
    }
    for (int i = 0; i < 20; ++i) {
      Bytes extended = c.encoding;
      append(extended, rng.bytes(1 + rng.uniform(16)));
      expect_graceful(c.name, c.fn, extended);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(1, 2, 3, 4, 5));

/// Directed probes: one crafted input per decoder-reachable code, then the
/// coverage assertion over everything the fuzz runs observed.
TEST(WireFuzzCoverage, DecoderReachableCodesAreAllProvoked) {
  auto provoke = [](const DecoderFn& fn, BytesView data) {
    expect_graceful("directed", fn, data);
  };
  const DecoderFn feed = [](BytesView d) {
    wire::FrameReader reader(/*max_payload=*/64);
    std::vector<wire::Frame> frames;
    reader.feed(d, frames);
  };

  Bytes bad_magic = wire::encode_frame(1, Bytes{1, 2});
  bad_magic[0] ^= 0xFF;
  provoke(feed, bad_magic);
  provoke(feed, wire::encode_frame(1, Bytes{1}, wire::kVersionMax + 1));
  provoke(feed, wire::encode_frame(1, Bytes{1}, 0));
  provoke(feed, wire::encode_frame(1, Bytes(65)));  // beyond this reader's 64

  Bytes msg = wire::encode_message({});
  Bytes truncated(msg.begin(), msg.end() - 1);
  provoke([](BytesView d) { (void)wire::decode_message(d); }, truncated);
  Bytes extended = msg;
  extended.push_back(0);
  provoke([](BytesView d) { (void)wire::decode_message(d); }, extended);

  Bytes trace = wire::encode_trace({});
  trace[0] = 200;  // trace kind outside the enum
  provoke([](BytesView d) { (void)wire::decode_trace(d); }, trace);

  Bytes welcome = wire::encode_welcome({});
  welcome[2 + 2 + 32] = 77;  // role byte
  provoke([](BytesView d) { (void)wire::decode_welcome(d); }, welcome);

  // check_welcome is the one decoder-adjacent gate with its own code.
  wire::Welcome foreign;
  foreign.genesis[0] = 1;
  try {
    (void)wire::check_welcome(foreign, crypto::Hash256{});
  } catch (const wire::WireError& e) {
    seen_codes().insert(e.code());
  }

  const std::set<wire::ProtocolError> required = {
      wire::ProtocolError::kBadMagic,        wire::ProtocolError::kHighVersion,
      wire::ProtocolError::kLowVersion,      wire::ProtocolError::kWrongGenesis,
      wire::ProtocolError::kOversizedFrame,  wire::ProtocolError::kTruncatedPayload,
      wire::ProtocolError::kTrailingBytes,   wire::ProtocolError::kBadPayload,
      wire::ProtocolError::kBadRole,
  };
  for (const wire::ProtocolError code : required) {
    EXPECT_TRUE(seen_codes().count(code) == 1)
        << "code never provoked: " << wire::to_string(code);
  }
}

/// The enum's wire stability: every defined code renders a distinct name
/// (a repeated or "invalid" name means a value was reused or skipped).
TEST(WireFuzzCoverage, EveryCodeHasADistinctStableName) {
  std::set<std::string_view> names;
  for (std::size_t v = 0; v < wire::kProtocolErrorCount; ++v) {
    const auto name = wire::to_string(static_cast<wire::ProtocolError>(v));
    EXPECT_NE(name, "invalid") << "unnamed code " << v;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

}  // namespace
}  // namespace repchain
