#pragma once

// Blocking framed connection for the cluster RPC plane. The driver/node
// dialogue is strictly request/reply in lockstep with the master event
// loop, so unlike the TcpTransport mesh there is nothing to multiplex:
// plain blocking reads and writes (looped over partial transfers) keep the
// control flow linear. A free-running node, whose thread belongs to its
// PollLoop, watches the same socket and drains it without blocking. Frames
// and the welcome admission check are the same wire-layer machinery the
// mesh uses.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "crypto/sha256.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace repchain::cluster {

class SyncConn {
 public:
  /// Takes ownership of `fd` (a connected stream socket) and closes it on
  /// destruction.
  explicit SyncConn(int fd);
  ~SyncConn();

  SyncConn(const SyncConn&) = delete;
  SyncConn& operator=(const SyncConn&) = delete;

  /// Bound every subsequent blocking send/recv to `micros` microseconds
  /// (0 restores indefinite blocking). On expiry the call throws
  /// WireError(kPeerTimeout) instead of hanging on a peer that died without
  /// closing its socket — the supervised driver's liveness seam.
  void set_timeout(std::uint64_t micros);

  /// Write one frame, looping over partial writes until it is fully out.
  /// Throws NetError on a broken socket, WireError(kPeerTimeout) when a
  /// deadline is set and the peer stops draining.
  void send_frame(std::uint16_t type, BytesView payload);

  /// Block until the next complete frame arrives. Throws NetError on EOF or
  /// a socket error, WireError on a structurally bad stream,
  /// WireError(kPeerTimeout) when a deadline is set and nothing arrives.
  [[nodiscard]] wire::Frame recv_frame();

  /// Non-blocking variant for a socket a PollLoop watches: the next frame
  /// already buffered or arrived, or nullopt when the socket has nothing
  /// more right now. Throws like recv_frame.
  [[nodiscard]] std::optional<wire::Frame> try_recv_frame();

  /// Best-effort kError notification before dropping the connection; never
  /// throws (the caller is already unwinding).
  void send_error(wire::ProtocolError code, const std::string& detail) noexcept;

  /// Refuse the peer: send_error, then throw WireError(code, detail).
  [[noreturn]] void refuse(wire::ProtocolError code, const std::string& detail);

  [[nodiscard]] int fd() const { return fd_; }

 private:
  [[nodiscard]] std::optional<wire::Frame> read_frame(bool block);

  int fd_;
  wire::FrameReader reader_;
  std::vector<wire::Frame> pending_;
  std::size_t next_ = 0;  // cursor into pending_
};

/// Mutual admission over a fresh connection: send `local`, read the peer's
/// welcome, run check_welcome against `genesis`. Returns the peer's welcome.
/// On a failed check the peer is notified with a kError packet and the
/// WireError is rethrown.
[[nodiscard]] wire::Welcome handshake(SyncConn& conn, const wire::Welcome& local,
                                      const crypto::Hash256& genesis);

// --- Node bootstrap, shared by the lockstep and free-running node hosts -----

/// `index` when it names one of `governors`; ConfigError otherwise.
[[nodiscard]] std::size_t checked_governor_index(std::size_t index,
                                                 std::size_t governors);

/// Node side of the driver admission: present the welcome of governor
/// `index` hosting `node` — a restarted life (`incarnation` > 0) announces
/// session resume with its recovered `head_serial` — run handshake, and
/// refuse a peer that is not the driver with kBadRole.
void accept_driver(SyncConn& conn, const crypto::Hash256& genesis, std::size_t index,
                   NodeId node, std::uint32_t incarnation, std::uint64_t head_serial);

}  // namespace repchain::cluster
