#pragma once

// Blocking loopback TCP endpoints for single-host deployments: the cluster
// launcher's listener, a node's dial to it, and wire_proxy's splice ends.

#include <cstdint>

namespace repchain::runtime {

/// A socket listening on 127.0.0.1:`port` (0 = ephemeral) with
/// SO_REUSEADDR; the bound port lands in `bound` when non-null. Throws
/// NetError.
[[nodiscard]] int listen_loopback(std::uint16_t port,
                                  std::uint16_t* bound = nullptr);

/// A stream socket connected to 127.0.0.1:`port`. Throws NetError.
[[nodiscard]] int dial_loopback(std::uint16_t port);

}  // namespace repchain::runtime
