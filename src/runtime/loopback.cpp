#include "runtime/loopback.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/errors.hpp"

namespace repchain::runtime {
namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

[[noreturn]] void fail(int fd, const char* what) {
  const int err = errno;
  if (fd >= 0) ::close(fd);
  throw NetError(std::string(what) + ": " + std::strerror(err));
}

}  // namespace

int listen_loopback(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail(fd, "socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), len) < 0) fail(fd, "bind");
  if (::listen(fd, 16) < 0) fail(fd, "listen");
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    fail(fd, "getsockname");
  }
  if (bound != nullptr) *bound = ntohs(addr.sin_port);
  return fd;
}

int dial_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail(fd, "socket");
  const sockaddr_in addr = loopback(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    fail(fd, "connect");
  }
  return fd;
}

}  // namespace repchain::runtime
