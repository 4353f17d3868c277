#include "cluster/local_cluster.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <system_error>

#include "cluster/driver.hpp"
#include "common/errors.hpp"
#include "runtime/loopback.hpp"
#include "sim/harness/spec_codec.hpp"

namespace repchain::cluster {
namespace {

/// Bound on each admission: a node must dial and finish its handshake
/// within this window.
constexpr int kAdmitMs = 15'000;

}  // namespace

std::filesystem::path beside_executable(const std::filesystem::path& relative) {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path() / relative;
}

LocalCluster::LocalCluster(sim::ScenarioConfig config, Deployment deployment)
    : node_bin_(std::move(deployment.node_bin)),
      log_dir_(std::move(deployment.log_dir)),
      state_root_(std::move(deployment.state_root)),
      peer_base_(deployment.peer_base) {
  try {
    launch(config, deployment);
  } catch (...) {
    release();
    throw;
  }
}

LocalCluster::~LocalCluster() { release(); }

void LocalCluster::launch(sim::ScenarioConfig& config,
                          const Deployment& deployment) {
  sim::normalize_config(config);
  const std::size_t governors = config.topology.governors;
  if (peer_base_ != 0 && peer_base_ + governors > 65535) {
    throw ConfigError("peer base " + std::to_string(peer_base_) +
                      " leaves no room for a " + std::to_string(governors) +
                      "-node mesh");
  }
  genesis_ = sim::config_genesis(config);
  pids_.assign(governors, -1);

  std::string temp =
      (std::filesystem::temp_directory_path() / "repchain_cluster_XXXXXX").string();
  if (::mkdtemp(temp.data()) == nullptr) {
    throw NetError(std::string("mkdtemp: ") + std::strerror(errno));
  }
  temp_dir_ = temp;
  {
    const Bytes blob = sim::encode_config(config);
    std::ofstream out(temp_dir_ / "config.blob", std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) throw NetError("cannot write the config blob");
  }
  if (peer_base_ != 0) {
    if (state_root_.empty()) {
      state_root_ = (temp_dir_ / "state").string();
    } else {
      std::filesystem::remove_all(state_root_);
    }
    std::filesystem::create_directories(state_root_);
  }
  if (!log_dir_.empty()) std::filesystem::create_directories(log_dir_);

  std::uint16_t listen_port = 0;
  listen_fd_ = runtime::listen_loopback(deployment.listen_port, &listen_port);
  node_port_ = deployment.node_port != 0 ? deployment.node_port : listen_port;

  for (std::size_t i = 0; i < governors; ++i) spawn(i, 0);
  // Connection order is whatever the OS raced; slot by announced index.
  conns_.resize(governors);
  for (std::size_t admitted = 0; admitted < governors; ++admitted) {
    wire::Welcome remote;
    auto conn = admit(remote);
    if (conns_[remote.node_index] != nullptr) {
      conn->refuse(wire::ProtocolError::kBadNodeIndex,
                   "governor index " + std::to_string(remote.node_index) +
                       " admitted twice");
    }
    conns_[remote.node_index] = std::move(conn);
  }
}

void LocalCluster::release() noexcept {
  for (std::size_t i = 0; i < pids_.size(); ++i) kill(i);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (!temp_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(temp_dir_, ec);
    temp_dir_.clear();
  }
}

std::vector<std::unique_ptr<SyncConn>> LocalCluster::take_conns() {
  return std::move(conns_);
}

void LocalCluster::spawn(std::size_t index, std::uint32_t incarnation) {
  // A failed respawn attempt leaves an exited child behind; reap it before
  // forking the next one so retries don't accumulate zombies.
  kill(index);
  // Everything the child needs is built before fork(): between fork and
  // exec only async-signal-safe calls are allowed (the parent may be
  // multi-threaded).
  std::vector<std::string> args = {
      node_bin_, "--config=" + (temp_dir_ / "config.blob").string(),
      "--index=" + std::to_string(index),
      "--connect=" + std::to_string(node_port_)};
  if (peer_base_ != 0) {
    args.push_back("--free-run");
    args.push_back("--peer-base=" + std::to_string(peer_base_));
    args.push_back("--state-dir=" + state_root_ + "/node" + std::to_string(index));
  }
  if (incarnation > 0) {
    args.push_back("--incarnation=" + std::to_string(incarnation));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string log =
      log_dir_.empty() ? "" : log_dir_ + "/node" + std::to_string(index) + ".log";

  const pid_t pid = ::fork();
  if (pid < 0) throw NetError(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    if (!log.empty()) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        (void)::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);  // reaped and logged as an exit status by kill()
  }
  pids_[index] = pid;
}

void LocalCluster::kill(std::size_t index) {
  const pid_t pid = pids_[index];
  if (pid <= 0) return;
  pids_[index] = -1;
  // A victim may have died on its own (crash, exec failure) before we got
  // here; reap and record that instead of claiming the SIGKILL worked.
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) == pid) {
    ++spontaneous_exits_;
    std::fprintf(stderr,
                 "cluster: node %zu (pid %d) exited on its own (status 0x%x) "
                 "before kill\n",
                 index, static_cast<int>(pid), status);
    return;
  }
  (void)::kill(pid, SIGKILL);
  (void)::waitpid(pid, &status, 0);
}

int LocalCluster::wait_exit(std::size_t index) {
  const pid_t pid = pids_[index];
  if (pid <= 0) return 0;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    throw NetError(std::string("waitpid: ") + std::strerror(errno));
  }
  pids_[index] = -1;
  return status;
}

std::unique_ptr<SyncConn> LocalCluster::admit(wire::Welcome& remote) {
  pollfd pfd{listen_fd_, POLLIN, 0};
  int rc = 0;
  while ((rc = ::poll(&pfd, 1, kAdmitMs)) < 0 && errno == EINTR) {
  }
  if (rc <= 0) {
    throw wire::WireError(wire::ProtocolError::kPeerTimeout,
                          "no node dialed within the admission deadline");
  }
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) throw NetError(std::string("accept: ") + std::strerror(errno));
  auto conn = std::make_unique<SyncConn>(fd);
  // Bound the handshake too: a child that connects and hangs must not wedge
  // the admission.
  conn->set_timeout(static_cast<std::uint64_t>(kAdmitMs) * 1000);
  remote = handshake(*conn, driver_welcome(genesis_), genesis_);
  conn->set_timeout(0);
  if (remote.role != wire::Role::kNode) {
    conn->refuse(wire::ProtocolError::kBadRole, "peer is not a cluster node");
  }
  if (remote.node_index >= pids_.size()) {
    conn->refuse(wire::ProtocolError::kBadNodeIndex,
                 "governor index " + std::to_string(remote.node_index));
  }
  return conn;
}

std::unique_ptr<SyncConn> LocalCluster::respawn(std::size_t index,
                                                std::uint32_t incarnation) {
  spawn(index, incarnation);
  wire::Welcome remote;
  auto conn = admit(remote);
  if (remote.node_index != index || !remote.resume ||
      remote.incarnation != incarnation) {
    conn->refuse(wire::ProtocolError::kBadNodeIndex,
                 "welcome is not node " + std::to_string(index) +
                     " resuming as incarnation " + std::to_string(incarnation));
  }
  std::fprintf(stderr,
               "cluster: respawned node %zu as incarnation %u (recovered head "
               "serial %" PRIu64 ")\n",
               index, incarnation, remote.head_serial);
  return conn;
}

}  // namespace repchain::cluster
