#include "cluster/sync_conn.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/errors.hpp"

namespace repchain::cluster {

SyncConn::SyncConn(int fd) : fd_(fd) {
  // Control traffic mixes RPC ping-pong with one-way fire-and-forget frames
  // (kRegisterTx): Nagle coalescing against a delayed ACK would hold those
  // for tens of milliseconds, losing races against the peer's phase timers.
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SyncConn::set_timeout(std::uint64_t micros) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(micros / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(micros % 1000000);
  (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

SyncConn::~SyncConn() {
  if (fd_ >= 0) ::close(fd_);
}

void SyncConn::send_frame(std::uint16_t type, BytesView payload) {
  const Bytes frame = wire::encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw wire::WireError(wire::ProtocolError::kPeerTimeout,
                              "cluster send: deadline expired");
      throw NetError(std::string("cluster send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

wire::Frame SyncConn::recv_frame() { return *read_frame(true); }

std::optional<wire::Frame> SyncConn::try_recv_frame() { return read_frame(false); }

std::optional<wire::Frame> SyncConn::read_frame(bool block) {
  while (true) {
    if (next_ < pending_.size()) {
      wire::Frame f = std::move(pending_[next_++]);
      if (next_ == pending_.size()) {
        pending_.clear();
        next_ = 0;
      }
      return f;
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), block ? 0 : MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!block) return std::nullopt;
        throw wire::WireError(wire::ProtocolError::kPeerTimeout,
                              "cluster recv: deadline expired");
      }
      throw NetError(std::string("cluster recv: ") + std::strerror(errno));
    }
    if (n == 0) throw NetError("cluster recv: connection closed");
    reader_.feed(BytesView(buf, static_cast<std::size_t>(n)), pending_);
  }
}

void SyncConn::send_error(wire::ProtocolError code,
                          const std::string& detail) noexcept {
  try {
    const Bytes payload = wire::encode_error({code, detail});
    const Bytes frame =
        wire::encode_frame(static_cast<std::uint16_t>(wire::PacketType::kError),
                           payload);
    // One best-effort write; the peer may already be gone.
    (void)::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  } catch (...) {
  }
}

void SyncConn::refuse(wire::ProtocolError code, const std::string& detail) {
  send_error(code, detail);
  throw wire::WireError(code, detail);
}

wire::Welcome handshake(SyncConn& conn, const wire::Welcome& local,
                        const crypto::Hash256& genesis) {
  conn.send_frame(static_cast<std::uint16_t>(wire::PacketType::kWelcome),
                  wire::encode_welcome(local));
  const wire::Frame frame = conn.recv_frame();
  if (frame.type == static_cast<std::uint16_t>(wire::PacketType::kError)) {
    const wire::ErrorPacket err = wire::decode_error(frame.payload);
    throw wire::WireError(err.code, "peer rejected handshake: " + err.detail);
  }
  if (frame.type != static_cast<std::uint16_t>(wire::PacketType::kWelcome)) {
    conn.refuse(wire::ProtocolError::kUnexpectedPacket,
                "first packet was not a welcome");
  }
  try {
    const wire::Welcome remote = wire::decode_welcome(frame.payload);
    (void)wire::check_welcome(remote, genesis);
    return remote;
  } catch (const wire::WireError& e) {
    conn.send_error(e.code(), e.what());
    throw;
  }
}

}  // namespace repchain::cluster
