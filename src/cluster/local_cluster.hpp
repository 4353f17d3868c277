#pragma once

// A loopback cluster of `node` processes, one per governor, owned by one
// object. Construction writes the config blob, listens, forks every node and
// admits each one slotted by the index its welcome announces; kill/respawn
// carry the free-running crash schedule; destruction — normal or by
// exception — reaps leftover children, closes the listener, and removes the
// blob and any temporary state root it created.

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cluster/sync_conn.hpp"
#include "crypto/sha256.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::cluster {

/// `relative` resolved against the directory of the running executable, so
/// a sibling build output (tools/node) is found whatever the cwd.
[[nodiscard]] std::filesystem::path beside_executable(
    const std::filesystem::path& relative);

class LocalCluster {
 public:
  /// Deployment paths and ports only; the protocol is fixed by the config.
  struct Deployment {
    std::string node_bin{};
    /// Free-run only: node i persists under <state_root>/node<i>. A given
    /// root is wiped first; empty = a temporary root, removed afterwards.
    std::string state_root{};
    /// Non-empty: node i's stderr is appended to <log_dir>/node<i>.log.
    std::string log_dir{};
    std::uint16_t listen_port = 0;  // 0 = ephemeral
    /// Where the nodes dial: 0 = the listener, else a proxy in front of it.
    std::uint16_t node_port = 0;
    /// Non-zero: free-running nodes whose mesh listens on peer_base + i.
    /// Zero: stateless lockstep nodes.
    std::uint16_t peer_base = 0;
  };

  /// Launch and admit one node per governor of `config` (normalized here).
  /// Throws ConfigError when the peer base leaves no room for the mesh,
  /// NetError on a launch failure, WireError when a node is not admitted in
  /// time or announces a bad or duplicate index.
  LocalCluster(sim::ScenarioConfig config, Deployment deployment);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// The admitted control connections, slotted by governor index (moved
  /// out to the run that drives the nodes).
  [[nodiscard]] std::vector<std::unique_ptr<SyncConn>> take_conns();

  /// SIGKILL + reap node `index`; no-op when it is gone. A node that already
  /// exited on its own is reaped, logged and counted in spontaneous_exits().
  void kill(std::size_t index);

  /// Reap node `index`, expected to exit on its own; returns its wait status
  /// (0 when no child is running).
  int wait_exit(std::size_t index);

  /// Fork node `index` again as `incarnation` and admit it. Unless its
  /// welcome announces exactly this index, session resume and this
  /// incarnation, the node is answered with a kBadNodeIndex kError and
  /// WireError(kBadNodeIndex) is thrown; other failures throw as above.
  [[nodiscard]] std::unique_ptr<SyncConn> respawn(std::size_t index,
                                                  std::uint32_t incarnation);

  [[nodiscard]] std::uint16_t peer_base() const { return peer_base_; }
  [[nodiscard]] std::uint32_t spontaneous_exits() const {
    return spontaneous_exits_;
  }

 private:
  void launch(sim::ScenarioConfig& config, const Deployment& deployment);
  void spawn(std::size_t index, std::uint32_t incarnation);
  /// Accept one node within the admission deadline and run the driver
  /// handshake; the peer's welcome lands in `remote`.
  [[nodiscard]] std::unique_ptr<SyncConn> admit(wire::Welcome& remote);
  void release() noexcept;

  std::string node_bin_;
  std::string log_dir_;
  std::string state_root_;
  std::uint16_t node_port_ = 0;
  std::uint16_t peer_base_ = 0;
  crypto::Hash256 genesis_{};
  std::filesystem::path temp_dir_;  // the blob, and a temporary state root
  int listen_fd_ = -1;
  std::vector<pid_t> pids_;
  std::vector<std::unique_ptr<SyncConn>> conns_;
  std::uint32_t spontaneous_exits_ = 0;
};

}  // namespace repchain::cluster
