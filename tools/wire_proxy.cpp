// Socket-level chaos intermediary. Sits between cluster processes and the
// driver (or between any two wire-protocol peers), splicing bytes in both
// directions while carrying the simulator's FaultSchedule semantics onto
// real TCP: scheduled forwarding stalls (DelayFault), partition windows
// that sever every connection and refuse new ones (PartitionFault), and a
// one-shot connection reset that first forwards a byte-level truncation of
// the stream — a partial frame followed by a hard close, exactly the
// failure the FrameReader/reconnect paths must absorb.
//
//   wire_proxy --listen=<port> --connect=<port>
//              [--stall=<period_ms>:<dur_ms>]   recurring stall windows
//              [--partition=<start_ms>:<dur_ms>] sever + refuse during window
//              [--reset-conn=<n>[@<bytes>]]     accepted connection #n: forward
//                                               only <bytes> (default 16), close
//
// Runs until killed. Faults are wall-clock scheduled on the PollLoop, the
// same timer seam TcpTransport's heartbeats ride in production. Ports lie
// in [1, 65535] and window lengths are >= 1 ms; an unknown flag or a
// malformed or out-of-range value prints the usage and exits 2.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/flag_parse.hpp"
#include "common/sim_time.hpp"
#include "runtime/loopback.hpp"
#include "runtime/poll_loop.hpp"

namespace {

using namespace repchain;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw NetError(std::string("fcntl: ") + std::strerror(errno));
  }
}

struct Options {
  std::uint16_t listen_port = 0;
  std::uint16_t connect_port = 0;
  // Recurring stalls: every stall_period, pause forwarding for stall_dur.
  SimDuration stall_period = 0;
  SimDuration stall_dur = 0;
  // One partition window severing every connection.
  SimDuration partition_start = 0;
  SimDuration partition_dur = 0;
  // Reset accepted connection #reset_conn after forwarding reset_bytes.
  long reset_conn = -1;
  std::size_t reset_bytes = 16;
};

class Proxy {
 public:
  explicit Proxy(Options opts) : opts_(opts) {}

  void run() {
    listen_fd_ = runtime::listen_loopback(opts_.listen_port);
    set_nonblocking(listen_fd_);
    // Readiness announcement: supervising scripts wait for this line
    // instead of probing with a TCP connect — a probe would sit in the
    // listen backlog until the event loop accepts it, by which time the
    // upstream may be up, and a spliced probe would shift the fault
    // schedule's connection numbering.
    std::fprintf(stderr, "wire_proxy: listening on %u -> 127.0.0.1:%u\n",
                 opts_.listen_port, opts_.connect_port);
    loop_.watch(listen_fd_, POLLIN, [this](short) { on_accept(); });
    if (opts_.stall_period > 0) schedule_stall();
    if (opts_.partition_dur > 0) {
      loop_.schedule_at(opts_.partition_start, [this] {
        partitioned_ = true;
        std::fprintf(stderr, "wire_proxy: partition begins, severing %zu\n",
                     relays_.size() / 2);
        // Collect first: close_relay unwatches and erases map entries.
        std::vector<std::shared_ptr<Relay>> doomed;
        for (auto& [fd, r] : relays_) doomed.push_back(r);
        for (auto& r : doomed) close_relay(*r);
        loop_.schedule_at(opts_.partition_start + opts_.partition_dur,
                          [this] { partitioned_ = false; });
      });
    }
    // Serve forever (the supervising script kills the process).
    for (;;) loop_.run_until(loop_.now() + 3600 * kSecond);
  }

 private:
  // One spliced connection pair: a = accepted client, b = upstream dial.
  struct Relay {
    int a = -1;
    int b = -1;
    Bytes a_out;  // bytes awaiting write toward a
    Bytes b_out;  // bytes awaiting write toward b
    // >= 0: forward at most this many more bytes, then hard-close both.
    long truncate_budget = -1;
    bool closed = false;
  };

  void on_accept() {
    const int a = ::accept(listen_fd_, nullptr, nullptr);
    if (a < 0) return;
    if (partitioned_) {
      ::close(a);  // refused: the network is down
      return;
    }
    int b = -1;
    try {
      b = runtime::dial_loopback(opts_.connect_port);
      set_nonblocking(b);
    } catch (const NetError& e) {
      std::fprintf(stderr, "wire_proxy: %s\n", e.what());
      ::close(a);
      return;
    }
    // Spliced connections only: probes the upstream refused don't shift
    // the fault schedule's numbering.
    const std::size_t index = accepted_++;
    sockaddr_in peer{};
    socklen_t plen = sizeof(peer);
    (void)::getpeername(a, reinterpret_cast<sockaddr*>(&peer), &plen);
    std::fprintf(stderr, "wire_proxy: conn %zu spliced (client port %u)\n",
                 index, ntohs(peer.sin_port));
    set_nonblocking(a);
    auto relay = std::make_shared<Relay>();
    relay->a = a;
    relay->b = b;
    if (opts_.reset_conn >= 0 &&
        index == static_cast<std::size_t>(opts_.reset_conn)) {
      relay->truncate_budget = static_cast<long>(opts_.reset_bytes);
      std::fprintf(stderr,
                   "wire_proxy: conn %zu scheduled for truncation after "
                   "%zu bytes\n",
                   index, opts_.reset_bytes);
    }
    relays_[a] = relay;
    relays_[b] = relay;
    loop_.watch(a, POLLIN, [this, relay](short ev) { on_io(*relay, relay->a, ev); });
    loop_.watch(b, POLLIN, [this, relay](short ev) { on_io(*relay, relay->b, ev); });
  }

  void on_io(Relay& r, int fd, short revents) {
    if (r.closed) return;
    const bool is_a = fd == r.a;
    const int peer = is_a ? r.b : r.a;
    Bytes& toward_peer = is_a ? r.b_out : r.a_out;
    Bytes& toward_fd = is_a ? r.a_out : r.b_out;
    if ((revents & POLLOUT) != 0) flush(fd, toward_fd);
    if ((revents & POLLIN) != 0 && !stalled_) {
      std::uint8_t buf[65536];
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
          std::size_t take = static_cast<std::size_t>(n);
          if (r.truncate_budget >= 0) {
            take = std::min(take, static_cast<std::size_t>(r.truncate_budget));
            r.truncate_budget -= static_cast<long>(take);
          }
          toward_peer.insert(toward_peer.end(), buf, buf + take);
          if (r.truncate_budget == 0) {
            // Flush the truncated prefix so the peer sees a partial frame,
            // then reset: the byte-level chop the FrameReader must discard.
            flush(peer, toward_peer);
            close_relay(r);
            return;
          }
          continue;
        }
        if (n == 0) {  // half of the pair closed: tear the whole splice down
          flush(peer, toward_peer);
          close_relay(r);
          return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_relay(r);
        return;
      }
    }
    if ((revents & (POLLERR | POLLHUP)) != 0) {
      flush(peer, toward_peer);
      close_relay(r);
      return;
    }
    flush(peer, toward_peer);
    if (r.closed) return;
    refresh_events(r);
  }

  /// Best-effort write of the pending buffer; keeps the unsent tail.
  void flush(int fd, Bytes& out) {
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      break;  // peer reset: the reader side will observe it next poll
    }
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(off));
  }

  void refresh_events(Relay& r) {
    // During a stall nothing is read, so inbound bytes queue in the kernel
    // (backpressure) instead of the proxy — the stream stays lossless.
    const short in = stalled_ ? 0 : POLLIN;
    loop_.set_events(r.a, static_cast<short>(in | (r.a_out.empty() ? 0 : POLLOUT)));
    loop_.set_events(r.b, static_cast<short>(in | (r.b_out.empty() ? 0 : POLLOUT)));
  }

  void close_relay(Relay& r) {
    if (r.closed) return;
    r.closed = true;
    for (const int fd : {r.a, r.b}) {
      loop_.unwatch(fd);
      relays_.erase(fd);
      // SO_LINGER 0: close sends RST, a genuine connection reset rather
      // than an orderly FIN — the harsher failure mode.
      const linger lg{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
      ::close(fd);
    }
  }

  void schedule_stall() {
    loop_.schedule_at(loop_.now() + opts_.stall_period, [this] {
      stalled_ = true;
      for (auto& [fd, r] : relays_) refresh_events(*r);
      loop_.schedule_at(loop_.now() + opts_.stall_dur, [this] {
        stalled_ = false;
        for (auto& [fd, r] : relays_) refresh_events(*r);
      });
      schedule_stall();
    });
  }

  Options opts_;
  runtime::PollLoop loop_;
  int listen_fd_ = -1;
  std::size_t accepted_ = 0;
  bool stalled_ = false;
  bool partitioned_ = false;
  std::map<int, std::shared_ptr<Relay>> relays_;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: wire_proxy --listen=<port> --connect=<port> "
               "[--stall=p:d] [--partition=s:d] [--reset-conn=n[@bytes]]\n");
  std::exit(2);
}

/// `flag`'s "<first_ms>:<second_ms>", both at least 1 ms.
void parse_window(const char* flag, const std::string& spec, SimDuration& first,
                  SimDuration& second) {
  const std::size_t colon = spec.find(':');
  const std::string rest = colon == std::string::npos ? "" : spec.substr(colon + 1);
  const long max_ms = LONG_MAX / static_cast<long>(kMillisecond);
  const std::string head = spec.substr(0, colon);
  first = flag_value(flag, head.c_str(), 1L, max_ms, usage) * kMillisecond;
  second = flag_value(flag, rest.c_str(), 1L, max_ms, usage) * kMillisecond;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--listen=", 0) == 0) {
      opts.listen_port = static_cast<std::uint16_t>(
          flag_value("--listen", arg.c_str() + 9, 1L, 65535L, usage));
    } else if (arg.rfind("--connect=", 0) == 0) {
      opts.connect_port = static_cast<std::uint16_t>(
          flag_value("--connect", arg.c_str() + 10, 1L, 65535L, usage));
    } else if (arg.rfind("--stall=", 0) == 0) {
      parse_window("--stall", arg.substr(8), opts.stall_period, opts.stall_dur);
    } else if (arg.rfind("--partition=", 0) == 0) {
      parse_window("--partition", arg.substr(12), opts.partition_start,
                   opts.partition_dur);
    } else if (arg.rfind("--reset-conn=", 0) == 0) {
      const std::string spec = arg.substr(13);
      const std::size_t at = spec.find('@');
      const std::string conn = spec.substr(0, at);
      opts.reset_conn = flag_value("--reset-conn", conn.c_str(), 0L, LONG_MAX, usage);
      if (at != std::string::npos) {
        const std::string bytes = spec.substr(at + 1);
        opts.reset_bytes = flag_value("--reset-conn", bytes.c_str(), 0L, LONG_MAX, usage);
      }
    } else {
      std::fprintf(stderr, "wire_proxy: unknown flag %s\n", arg.c_str());
      usage();
    }
  }
  if (opts.listen_port == 0 || opts.connect_port == 0) {
    std::fprintf(stderr, "wire_proxy: --listen and --connect are required\n");
    usage();
  }
  try {
    Proxy proxy(opts);
    proxy.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wire_proxy: %s\n", e.what());
    return 1;
  }
  return 0;
}
