#pragma once

// A real-socket realization of the Transport seam. Non-blocking TCP
// connections are driven by a PollLoop; every connection starts with the
// wire-protocol welcome exchange (version negotiation + genesis check) and
// then carries length-framed packets encoded by the shared wire codec, so a
// message on a socket is byte-identical to the same message in the
// simulator. Protocol nodes, ReliableChannel, FaultyTransport and the
// atomic-broadcast layer run unchanged on top.
//
// Single-threaded like the rest of the runtime: all socket callbacks and
// timers run inside the owning PollLoop's run_until().

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "crypto/sha256.hpp"
#include "runtime/message.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport.hpp"
#include "wire/frame.hpp"
#include "wire/protocol_error.hpp"

namespace repchain::runtime {

/// Traffic and error counters for one transport endpoint.
struct TcpStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;  // no route to destination
  std::uint64_t bytes_sent = 0;        // frame bytes queued, header included
  std::uint64_t frames_received = 0;
  std::uint64_t duplicates_ignored = 0;
  std::uint64_t connections_opened = 0;    // outbound attempts
  std::uint64_t connections_accepted = 0;  // inbound accepts
  std::uint64_t connections_lost = 0;      // established links that dropped
  std::uint64_t reconnect_attempts = 0;    // backed-off re-dials scheduled
  std::uint64_t reconnects = 0;            // links re-established after loss
  std::uint64_t dead_peers = 0;            // keepalive silence-window kills
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t protocol_errors = 0;
  wire::ProtocolError last_error = wire::ProtocolError::kNone;
};

class TcpTransport final : public Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  struct Options {
    /// The synchrony bound Delta reported to the protocol stack.
    SimDuration max_delay = 10 * kMillisecond;
    /// Frame payload bound fed to every connection's FrameReader.
    std::size_t max_payload = wire::kDefaultMaxPayload;
    /// Re-dial lost outbound connections with exponential backoff plus
    /// deterministic jitter. Off by default: lockstep cluster RPC treats a
    /// dropped link as fatal, while live deployments turn this on. While a
    /// link is down, send() drops as usual (messages_dropped) and the
    /// ReliableChannel retransmit schedule carries traffic over the gap;
    /// the fresh welcome exchange re-learns routes.
    bool auto_reconnect = false;
    SimDuration reconnect_base = 50 * kMillisecond;
    SimDuration reconnect_max = 2 * kSecond;
    /// Consecutive failed re-dials before a target is abandoned
    /// (0 = retry forever).
    std::uint32_t max_reconnect_attempts = 0;
    /// Keepalive (0 = off): every interval a kHeartbeat goes out on each
    /// established link, and a link with no inbound traffic at all for
    /// `dead_after_beats` intervals is declared dead — kPeerDead trace,
    /// dead_peers counter, close (re-dialed when auto_reconnect).
    SimDuration heartbeat_interval = 0;
    std::uint32_t dead_after_beats = 3;
  };

  TcpTransport(PollLoop& loop, crypto::Hash256 genesis)
      : TcpTransport(loop, genesis, Options{}) {}
  TcpTransport(PollLoop& loop, crypto::Hash256 genesis, Options opts);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Register a node living on this endpoint; its id is announced in the
  /// welcome packet of every connection. Handler may be installed later.
  void host(NodeId id, Handler handler = nullptr);
  void set_handler(NodeId id, Handler handler);

  /// Trace sink for kProtocolError events (may be null).
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// Called once per remote node id whose route was lost with a connection
  /// and then re-learned from a later welcome — i.e. the link to that peer
  /// is live again, regardless of which side redialed. ReliableChannel
  /// owners hook this to refresh retry budgets (on_peer_reconnect) instead
  /// of burning them against the dead link's backoff schedule.
  using ReconnectHook = std::function<void(NodeId)>;
  void set_reconnect_hook(ReconnectHook hook) {
    reconnect_hook_ = std::move(hook);
  }

  /// Bind + listen on loopback (`port` 0 picks an ephemeral port). Returns
  /// the actual bound port. Throws NetError on socket failure.
  std::uint16_t listen(std::uint16_t port);

  /// Open a non-blocking outbound connection to loopback:`port`; the
  /// welcome exchange begins once the connect completes.
  void connect(std::uint16_t port);

  /// Adopt one end of an already-connected socket (e.g. socketpair) and run
  /// the welcome exchange over it. Takes ownership of `fd`.
  void adopt(int fd);

  /// True once a welcome naming `id` has been accepted (or `id` is local).
  [[nodiscard]] bool reaches(NodeId id) const;
  /// Connections that completed the welcome exchange.
  [[nodiscard]] std::size_t established() const;

  /// Chaos/test hook: hard-close every connection (the listener survives).
  /// Partial inbound frames are discarded with the connection; dialed
  /// targets re-enter the backoff schedule when auto_reconnect is on.
  void drop_connections();

  [[nodiscard]] const TcpStats& stats() const { return stats_; }

  // --- Transport -------------------------------------------------------------

  void send(NodeId from, NodeId to, MsgKind kind, Bytes payload) override;
  void multicast(NodeId from, std::span<const NodeId> to, MsgKind kind,
                 const Bytes& payload) override;
  [[nodiscard]] SimDuration max_delay() const override {
    return opts_.max_delay;
  }
  [[nodiscard]] TimerService& timers() override { return loop_; }
  /// The broadcast layer schedules deliveries with this; a socket has no
  /// simulated latency model, so the bound itself is the deterministic draw.
  [[nodiscard]] SimDuration draw_delay() override { return opts_.max_delay; }
  void deliver_direct(const Message& msg) override;
  void count_broadcast(MsgKind kind, std::size_t copies,
                       std::size_t payload_bytes) override;

 private:
  struct Conn {
    enum class State : std::uint8_t {
      kConnecting,    // outbound, waiting for connect(2) to complete
      kAwaitWelcome,  // welcome sent, peer's not yet received
      kEstablished,
    };

    explicit Conn(int f, State s, std::size_t max_payload)
        : fd(f), state(s), reader(max_payload) {}

    int fd;
    State state;
    wire::FrameReader reader;
    Bytes outbuf;                // unsent frame bytes (partial-write queue)
    std::size_t out_off = 0;     // consumed prefix of outbuf
    std::vector<NodeId> hosted;  // routes learned from the peer's welcome
    int dial = -1;               // index into dials_ for outbound conns
    SimTime last_heard = 0;      // last inbound byte (keepalive window)
  };

  /// One outbound target we keep trying to reach while auto_reconnect.
  struct Dial {
    std::uint16_t port = 0;
    std::uint32_t attempts = 0;  // consecutive failures since last success
    SimDuration backoff = 0;     // delay before the next re-dial
    int fd = -1;                 // live conn fd, -1 while down
    bool retry_armed = false;    // a reconnect timer is pending
    bool gave_up = false;        // attempt budget exhausted or permanent error
  };

  void start_handshake(Conn& conn);
  void connect_dial(std::size_t idx);
  void schedule_reconnect(std::size_t idx);
  void on_heartbeat_tick();
  /// Bounded deterministic jitter derived from the endpoint nonce.
  [[nodiscard]] SimDuration jitter(SimDuration bound);
  void on_readable(int fd);
  void on_writable(int fd);
  void handle_frame(Conn& conn, const wire::Frame& frame);
  void handle_welcome(Conn& conn, const wire::Frame& frame);
  void dispatch(Message msg, bool restamp);
  /// Queue frame bytes on the connection, flushing as far as the socket
  /// accepts and arming POLLOUT for the rest.
  void queue_frame(Conn& conn, std::uint16_t type, BytesView payload);
  void flush(Conn& conn);
  /// Record the violation, best-effort send a kError packet, close.
  void fail_conn(Conn& conn, wire::ProtocolError code, std::string detail);
  void close_conn(int fd, bool allow_reconnect = true);
  void update_events(Conn& conn);
  [[nodiscard]] Conn* route(NodeId to);
  [[nodiscard]] NodeId trace_node() const;

  PollLoop& loop_;
  crypto::Hash256 genesis_;
  Options opts_;
  TraceSink* trace_ = nullptr;
  std::uint64_t nonce_ = 0;
  std::uint64_t jitter_state_ = 0;
  int listen_fd_ = -1;
  std::vector<Dial> dials_;
  // Timer callbacks (reconnect, heartbeat) may outlive the transport in the
  // loop's queue; they hold this flag and no-op once it flips.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;  // by fd
  std::unordered_map<NodeId, int> routes_;                // remote id -> fd
  // Routes torn down with a lost connection; a welcome that re-announces
  // one of these ids fires the reconnect hook.
  std::unordered_set<NodeId> lost_routes_;
  ReconnectHook reconnect_hook_;
  std::vector<NodeId> local_ids_;
  std::unordered_map<NodeId, Handler> handlers_;
  // Highest broadcast sequence delivered per (from, to); mirrors the
  // SimNetwork guard so fault-injected duplicate copies stay suppressed.
  std::unordered_map<std::uint64_t, std::uint64_t> delivered_seq_;
  // Recycled envelope buffer for the hot send/deliver_direct encode path;
  // its capacity survives across messages (see wire::encode_message_into).
  Bytes encode_arena_;
  TcpStats stats_;
};

}  // namespace repchain::runtime
