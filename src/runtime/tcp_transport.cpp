#include "runtime/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/errors.hpp"
#include "runtime/loopback.hpp"
#include "wire/codec.hpp"

namespace repchain::runtime {
namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Protocol traffic is streams of small one-way frames whose deadlines are
// keyed to the synchrony bound; Nagle coalescing against a delayed ACK can
// hold a frame for tens of milliseconds — longer than a phase window.
void set_nodelay(int fd) {
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}

// Handshake verdicts that cannot change between dials of the same peer;
// reconnecting after one of these would loop forever.
bool permanent_error(wire::ProtocolError code) {
  return code == wire::ProtocolError::kHighVersion ||
         code == wire::ProtocolError::kLowVersion ||
         code == wire::ProtocolError::kWrongGenesis;
}

}  // namespace

TcpTransport::TcpTransport(PollLoop& loop, crypto::Hash256 genesis,
                           Options opts)
    : loop_(loop), genesis_(genesis), opts_(opts) {
  // The nonce only needs to differ between endpoints of one process for
  // self-connection detection; no cryptographic strength required.
  static std::uint64_t counter = 0;
  nonce_ = (reinterpret_cast<std::uintptr_t>(this) << 8) ^ ++counter ^
           static_cast<std::uint64_t>(::getpid());
  jitter_state_ = nonce_ | 1;
  if (opts_.heartbeat_interval > 0) {
    loop_.schedule_at(loop_.now() + opts_.heartbeat_interval,
                      [this, alive = alive_] {
                        if (*alive) on_heartbeat_tick();
                      });
  }
}

TcpTransport::~TcpTransport() {
  *alive_ = false;
  for (auto& [fd, conn] : conns_) {
    loop_.unwatch(fd);
    ::close(fd);
  }
  if (listen_fd_ >= 0) {
    loop_.unwatch(listen_fd_);
    ::close(listen_fd_);
  }
}

void TcpTransport::host(NodeId id, Handler handler) {
  local_ids_.push_back(id);
  handlers_[id] = std::move(handler);
}

void TcpTransport::set_handler(NodeId id, Handler handler) {
  handlers_[id] = std::move(handler);
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  if (listen_fd_ >= 0) throw NetError("tcp: already listening");
  std::uint16_t bound = 0;
  const int fd = listen_loopback(port, &bound);
  set_nonblocking(fd);
  listen_fd_ = fd;
  loop_.watch(fd, POLLIN, [this](short) {
    for (;;) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) return;  // EAGAIN or transient error; poll again
      ++stats_.connections_accepted;
      adopt(cfd);
    }
  });
  return bound;
}

void TcpTransport::connect(std::uint16_t port) {
  dials_.push_back(Dial{.port = port});
  connect_dial(dials_.size() - 1);
}

void TcpTransport::connect_dial(std::size_t idx) {
  Dial& d = dials_[idx];
  d.retry_armed = false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    // Only the very first dial of a target reports failure by throwing;
    // re-dials stay on the backoff schedule.
    if (d.attempts == 0) throw NetError("tcp: socket() failed");
    schedule_reconnect(idx);
    return;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(d.port);
  ++stats_.connections_opened;
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    if (d.attempts == 0)
      throw NetError("tcp: connect() failed: " + std::string(strerror(errno)));
    schedule_reconnect(idx);
    return;
  }
  d.fd = fd;
  auto conn = std::make_unique<Conn>(fd, Conn::State::kConnecting,
                                     opts_.max_payload);
  conn->dial = static_cast<int>(idx);
  conn->last_heard = loop_.now();
  conns_.emplace(fd, std::move(conn));
  loop_.watch(fd, POLLOUT, [this, fd](short revents) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    Conn& c = *it->second;
    if (c.state == Conn::State::kConnecting) {
      int err = 0;
      socklen_t elen = sizeof(err);
      (void)getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
      if (err != 0 || (revents & (POLLERR | POLLHUP)) != 0) {
        close_conn(fd);
        return;
      }
      c.state = Conn::State::kAwaitWelcome;
      start_handshake(c);
      return;
    }
    if ((revents & POLLOUT) != 0) on_writable(fd);
    const auto again = conns_.find(fd);
    if (again != conns_.end() && (revents & (POLLIN | POLLHUP | POLLERR)) != 0)
      on_readable(fd);
  });
  if (rc == 0) {
    // Immediate connect (loopback fast path on some kernels).
    Conn& c = *conns_.at(fd);
    c.state = Conn::State::kAwaitWelcome;
    start_handshake(c);
  }
}

void TcpTransport::adopt(int fd) {
  set_nonblocking(fd);
  set_nodelay(fd);
  auto conn = std::make_unique<Conn>(fd, Conn::State::kAwaitWelcome,
                                     opts_.max_payload);
  conn->last_heard = loop_.now();
  Conn& c = *conns_.emplace(fd, std::move(conn)).first->second;
  loop_.watch(fd, POLLIN, [this, fd](short revents) {
    if ((revents & POLLOUT) != 0) on_writable(fd);
    const auto it = conns_.find(fd);
    if (it != conns_.end() && (revents & (POLLIN | POLLHUP | POLLERR)) != 0)
      on_readable(fd);
  });
  start_handshake(c);
}

void TcpTransport::start_handshake(Conn& conn) {
  wire::Welcome w;
  w.genesis = genesis_;
  w.role = wire::Role::kPeer;
  w.hosted = local_ids_;
  w.nonce = nonce_;
  queue_frame(conn, static_cast<std::uint16_t>(wire::PacketType::kWelcome),
              wire::encode_welcome(w));
}

void TcpTransport::schedule_reconnect(std::size_t idx) {
  Dial& d = dials_[idx];
  d.fd = -1;
  if (!opts_.auto_reconnect || d.gave_up || d.retry_armed) return;
  ++d.attempts;
  if (opts_.max_reconnect_attempts != 0 &&
      d.attempts > opts_.max_reconnect_attempts) {
    d.gave_up = true;
    return;
  }
  d.backoff = d.backoff == 0
                  ? opts_.reconnect_base
                  : std::min(d.backoff * 2, opts_.reconnect_max);
  const SimDuration delay = d.backoff + jitter(d.backoff / 2);
  ++stats_.reconnect_attempts;
  d.retry_armed = true;
  loop_.schedule_at(loop_.now() + delay, [this, idx, alive = alive_] {
    if (!*alive) return;
    connect_dial(idx);
  });
}

SimDuration TcpTransport::jitter(SimDuration bound) {
  if (bound <= 0) return 0;
  // LCG seeded off the endpoint nonce: spreads redial storms between
  // processes without consuming entropy or perturbing any seeded RNG.
  jitter_state_ =
      jitter_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<SimDuration>(
      (jitter_state_ >> 33) % (static_cast<std::uint64_t>(bound) + 1));
}

void TcpTransport::on_heartbeat_tick() {
  const SimTime now = loop_.now();
  const SimDuration window =
      opts_.heartbeat_interval *
      static_cast<SimDuration>(opts_.dead_after_beats);
  // Snapshot fds first: queue_frame/close_conn below mutate conns_.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_)
    if (conn->state == Conn::State::kEstablished) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& c = *it->second;
    if (now - c.last_heard > window) {
      ++stats_.dead_peers;
      if (trace_ != nullptr) {
        trace_->on_event(TraceEvent{TraceKind::kPeerDead, trace_node(), 0,
                                    static_cast<std::uint64_t>(fd),
                                    static_cast<std::uint64_t>(now - c.last_heard),
                                    now});
      }
      close_conn(fd);
      continue;
    }
    wire::Heartbeat hb;
    hb.nonce = nonce_;
    hb.sent_at = now;
    ++stats_.heartbeats_sent;
    queue_frame(c, static_cast<std::uint16_t>(wire::PacketType::kHeartbeat),
                wire::encode_heartbeat(hb));
  }
  loop_.schedule_at(now + opts_.heartbeat_interval, [this, alive = alive_] {
    if (*alive) on_heartbeat_tick();
  });
}

void TcpTransport::drop_connections() {
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_conn(fd);
}

bool TcpTransport::reaches(NodeId id) const {
  return handlers_.count(id) != 0 || routes_.count(id) != 0;
}

std::size_t TcpTransport::established() const {
  std::size_t n = 0;
  for (const auto& [fd, conn] : conns_)
    if (conn->state == Conn::State::kEstablished) ++n;
  return n;
}

// --- Transport surface -------------------------------------------------------

void TcpTransport::send(NodeId from, NodeId to, MsgKind kind, Bytes payload) {
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.kind = kind;
  msg.sent_at = loop_.now();
  msg.payload = std::move(payload);
  const auto local = handlers_.find(to);
  if (local != handlers_.end()) {
    ++stats_.messages_sent;
    stats_.bytes_sent += msg.payload.size();
    // Asynchronous like a real socket: never re-enter the handler from
    // inside the sender's call stack.
    loop_.schedule_at(loop_.now(), [this, m = std::move(msg)]() mutable {
      dispatch(std::move(m), /*restamp=*/true);
    });
    return;
  }
  Conn* conn = route(to);
  if (conn == nullptr) {
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_sent;
  wire::encode_message_into(msg, encode_arena_);
  queue_frame(*conn, static_cast<std::uint16_t>(wire::PacketType::kMessage),
              encode_arena_);
}

void TcpTransport::multicast(NodeId from, std::span<const NodeId> to,
                             MsgKind kind, const Bytes& payload) {
  for (const NodeId dest : to) send(from, dest, kind, payload);
}

void TcpTransport::deliver_direct(const Message& msg) {
  const auto local = handlers_.find(msg.to);
  if (local != handlers_.end()) {
    dispatch(msg, /*restamp=*/false);
    return;
  }
  Conn* conn = route(msg.to);
  if (conn == nullptr) {
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_sent;
  wire::encode_message_into(msg, encode_arena_);
  queue_frame(*conn, static_cast<std::uint16_t>(wire::PacketType::kDirect),
              encode_arena_);
}

void TcpTransport::count_broadcast(MsgKind kind, std::size_t copies,
                                   std::size_t payload_bytes) {
  (void)kind;
  stats_.messages_sent += copies;
  stats_.bytes_sent += copies * payload_bytes;
}

// --- Socket machinery --------------------------------------------------------

void TcpTransport::on_readable(int fd) {
  std::uint8_t buf[65536];
  for (;;) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) {
      close_conn(fd);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) close_conn(fd);
      return;
    }
    it->second->last_heard = loop_.now();
    std::vector<wire::Frame> frames;
    try {
      it->second->reader.feed(BytesView(buf, static_cast<std::size_t>(n)),
                              frames);
    } catch (const wire::WireError& e) {
      fail_conn(*it->second, e.code(), e.what());
      return;
    }
    for (const wire::Frame& frame : frames) {
      const auto again = conns_.find(fd);
      if (again == conns_.end()) return;  // a prior frame closed the conn
      ++stats_.frames_received;
      handle_frame(*again->second, frame);
    }
  }
}

void TcpTransport::on_writable(int fd) {
  const auto it = conns_.find(fd);
  if (it != conns_.end()) flush(*it->second);
}

void TcpTransport::handle_frame(Conn& conn, const wire::Frame& frame) {
  const auto type = static_cast<wire::PacketType>(frame.type);
  try {
    switch (type) {
      case wire::PacketType::kWelcome:
        handle_welcome(conn, frame);
        return;
      case wire::PacketType::kError: {
        // The peer is reporting that *we* violated the protocol; surface it
        // and drop the link without echoing another error back. Handshake
        // verdicts (version range, genesis) are permanent: re-dialing the
        // same peer can only repeat them.
        const wire::ErrorPacket e = wire::decode_error(frame.payload);
        ++stats_.protocol_errors;
        stats_.last_error = e.code;
        if (trace_ != nullptr) {
          trace_->on_event(TraceEvent{TraceKind::kProtocolError, trace_node(),
                                      0, static_cast<std::uint64_t>(e.code),
                                      static_cast<std::uint64_t>(conn.fd),
                                      loop_.now()});
        }
        close_conn(conn.fd, !permanent_error(e.code));
        return;
      }
      case wire::PacketType::kHeartbeat: {
        if (conn.state != Conn::State::kEstablished) {
          fail_conn(conn, wire::ProtocolError::kUnexpectedPacket,
                    "heartbeat before welcome");
          return;
        }
        (void)wire::decode_heartbeat(frame.payload);
        ++stats_.heartbeats_received;
        return;
      }
      case wire::PacketType::kMessage:
      case wire::PacketType::kDirect: {
        if (conn.state != Conn::State::kEstablished) {
          fail_conn(conn, wire::ProtocolError::kUnexpectedPacket,
                    "message before welcome");
          return;
        }
        Message msg = wire::decode_message(frame.payload);
        dispatch(std::move(msg),
                 /*restamp=*/type == wire::PacketType::kMessage);
        return;
      }
    }
    fail_conn(conn, wire::ProtocolError::kUnknownPacket,
              "packet type " + std::to_string(frame.type));
  } catch (const wire::WireError& e) {
    fail_conn(conn, e.code(), e.what());
  }
}

void TcpTransport::handle_welcome(Conn& conn, const wire::Frame& frame) {
  if (conn.state != Conn::State::kAwaitWelcome) {
    fail_conn(conn, wire::ProtocolError::kUnexpectedPacket,
              "duplicate welcome");
    return;
  }
  const wire::Welcome w = wire::decode_welcome(frame.payload);
  if (w.nonce == nonce_) {
    // Connected to ourselves; drop quietly and never redial.
    close_conn(conn.fd, /*allow_reconnect=*/false);
    return;
  }
  (void)wire::check_welcome(w, genesis_);  // throws on version/genesis mismatch
  conn.state = Conn::State::kEstablished;
  conn.hosted = w.hosted;
  for (const NodeId id : conn.hosted) routes_[id] = conn.fd;
  if (conn.dial >= 0) {
    Dial& d = dials_[static_cast<std::size_t>(conn.dial)];
    if (d.attempts > 0) ++stats_.reconnects;
    d.attempts = 0;
    d.backoff = 0;
  }
  // Fire the reconnect hook for every re-learned route, whichever side
  // redialed. Collect first: the hook may send, which can mutate conns_.
  std::vector<NodeId> recovered;
  for (const NodeId id : conn.hosted)
    if (lost_routes_.erase(id) > 0) recovered.push_back(id);
  if (reconnect_hook_)
    for (const NodeId id : recovered) reconnect_hook_(id);
}

void TcpTransport::dispatch(Message msg, bool restamp) {
  if (restamp) msg.delivered_at = loop_.now();
  if (!restamp && msg.seq != 0) {
    // Pre-ordered broadcast copy: suppress fault-injected re-delivery, same
    // per-link monotone-sequence guard as SimNetwork::deliver_direct.
    auto& mark = delivered_seq_[link_key(msg.from, msg.to)];
    if (msg.seq <= mark) {
      ++stats_.duplicates_ignored;
      return;
    }
    mark = msg.seq;
  }
  const auto it = handlers_.find(msg.to);
  if (it == handlers_.end() || !it->second) {
    ++stats_.messages_dropped;
    return;
  }
  it->second(msg);
}

void TcpTransport::queue_frame(Conn& conn, std::uint16_t type,
                               BytesView payload) {
  stats_.bytes_sent += wire::kHeaderSize + payload.size();
  if (conn.out_off > 0 && conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
  // The outbuf is the encode arena: the frame header and payload are
  // appended in place, with no intermediate frame allocation.
  wire::append_frame(conn.outbuf, type, payload);
  flush(conn);
}

void TcpTransport::flush(Conn& conn) {
  const int fd = conn.fd;
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n =
        ::send(fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(fd);
    return;
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
  update_events(conn);
}

void TcpTransport::update_events(Conn& conn) {
  short events = POLLIN;
  if (conn.out_off < conn.outbuf.size()) events |= POLLOUT;
  loop_.set_events(conn.fd, events);
}

void TcpTransport::fail_conn(Conn& conn, wire::ProtocolError code,
                             std::string detail) {
  ++stats_.protocol_errors;
  stats_.last_error = code;
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{TraceKind::kProtocolError, trace_node(), 0,
                                static_cast<std::uint64_t>(code),
                                static_cast<std::uint64_t>(conn.fd),
                                loop_.now()});
  }
  // Best effort: tell the peer why before dropping the link. The socket may
  // be full; a lost error packet only costs the peer a diagnostic.
  const Bytes pkt = wire::encode_frame(
      static_cast<std::uint16_t>(wire::PacketType::kError),
      wire::encode_error(wire::ErrorPacket{code, std::move(detail)}));
  (void)::send(conn.fd, pkt.data(), pkt.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  close_conn(conn.fd, !permanent_error(code));
}

void TcpTransport::close_conn(int fd, bool allow_reconnect) {
  const auto it = conns_.find(fd);
  const int dial = it != conns_.end() ? it->second->dial : -1;
  if (it != conns_.end() && it->second->state == Conn::State::kEstablished)
    ++stats_.connections_lost;
  for (auto rit = routes_.begin(); rit != routes_.end();) {
    if (rit->second == fd) {
      lost_routes_.insert(rit->first);
      rit = routes_.erase(rit);
    } else {
      ++rit;
    }
  }
  loop_.unwatch(fd);
  ::close(fd);
  conns_.erase(fd);
  if (dial >= 0) {
    Dial& d = dials_[static_cast<std::size_t>(dial)];
    if (allow_reconnect)
      schedule_reconnect(static_cast<std::size_t>(dial));
    else {
      d.fd = -1;
      d.gave_up = true;
    }
  }
}

TcpTransport::Conn* TcpTransport::route(NodeId to) {
  const auto it = routes_.find(to);
  if (it == routes_.end()) return nullptr;
  const auto conn = conns_.find(it->second);
  if (conn == conns_.end() ||
      conn->second->state != Conn::State::kEstablished)
    return nullptr;
  return conn->second.get();
}

NodeId TcpTransport::trace_node() const {
  return local_ids_.empty() ? NodeId{} : local_ids_.front();
}

}  // namespace repchain::runtime
