// One cluster governor process. Handed a canonical config blob, a governor
// index and the driver's loopback port, it rebuilds the deterministic
// SystemModel from the blob, constructs its governor, dials the driver and
// serves the lockstep RPC loop until shutdown (see src/cluster/). Spawned
// by cluster_driver; runnable by hand for debugging a single node.
//
//   node --config=<blob-file> --index=<governor index> --connect=<port>
//        [--free-run --peer-base=<port> [--state-dir=<dir>] [--incarnation=<n>]]
//
// --free-run switches from the lockstep RPC loop to the self-driving mode:
// the governor's rounds are armed on a real poll loop, protocol traffic
// travels peer-to-peer over a TCP mesh (this node listens on
// --peer-base + index and dials every lower-indexed peer), and the dialed
// driver port becomes a thin control/observation channel. Only a
// free-running node is durable: --state-dir attaches a FileStateStore (WAL +
// snapshots) so the chain survives a SIGKILL, and --incarnation=<n> (n > 0)
// marks a restarted process that replays its store before dialing and
// announces session resume in its welcome. A missing, malformed or
// out-of-range value prints the usage and exits 2.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "cluster/free_node.hpp"
#include "cluster/node_host.hpp"
#include "common/flag_parse.hpp"
#include "runtime/loopback.hpp"
#include "sim/harness/spec_codec.hpp"

namespace {

using namespace repchain;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "node: %s\n", msg.c_str());
  std::exit(2);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: node --config=<blob-file> --index=<i> --connect=<port> "
               "[--free-run --peer-base=<port> [--state-dir=<dir>] "
               "[--incarnation=<n>]]\n");
  std::exit(2);
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open config blob " + path);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string state_dir;
  long index = -1;
  long port = -1;
  long incarnation = 0;
  long peer_base = 0;
  bool free_run = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--config=", 0) == 0) {
      config_path = arg.substr(9);
    } else if (arg.rfind("--index=", 0) == 0) {
      index = flag_value("--index", arg.c_str() + 8, 0L, 65535L, usage);
    } else if (arg.rfind("--connect=", 0) == 0) {
      port = flag_value("--connect", arg.c_str() + 10, 1L, 65535L, usage);
    } else if (arg.rfind("--state-dir=", 0) == 0) {
      state_dir = arg.substr(12);
    } else if (arg.rfind("--incarnation=", 0) == 0) {
      incarnation =
          flag_value("--incarnation", arg.c_str() + 14, 0L, long{UINT32_MAX}, usage);
    } else if (arg.rfind("--peer-base=", 0) == 0) {
      peer_base = flag_value("--peer-base", arg.c_str() + 12, 1L, 65535L, usage);
    } else if (arg == "--free-run") {
      free_run = true;
    } else {
      std::fprintf(stderr, "node: unknown argument %s\n", arg.c_str());
      usage();
    }
  }
  if (config_path.empty() || index < 0 || port < 0) usage();
  if (!free_run && (!state_dir.empty() || incarnation > 0)) {
    die("--state-dir/--incarnation need --free-run (lockstep nodes are "
        "stateless)");
  }
  if (incarnation > 0 && state_dir.empty()) {
    die("--incarnation requires --state-dir (nothing to recover from)");
  }
  if (free_run && (peer_base == 0 || peer_base + index > 65535)) {
    die("--free-run requires --peer-base with room for every node's port");
  }

  try {
    const sim::ScenarioConfig config = sim::decode_config(read_file(config_path));
    if (free_run) {
      cluster::FreeNodeHost host(config, static_cast<std::size_t>(index),
                                 static_cast<std::uint16_t>(peer_base),
                                 state_dir,
                                 static_cast<std::uint32_t>(incarnation));
      host.run(runtime::dial_loopback(static_cast<std::uint16_t>(port)));
    } else {
      cluster::NodeHost host(config, static_cast<std::size_t>(index));
      host.serve(runtime::dial_loopback(static_cast<std::uint16_t>(port)));
    }
  } catch (const std::exception& e) {
    die(e.what());
  }
  return 0;
}
