#pragma once

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "crypto/vrf.hpp"
#include "identity/identity_manager.hpp"
#include "protocol/messages.hpp"
#include "protocol/stake.hpp"

namespace repchain::protocol {

/// VRF-PoS leader election (§3.4.3): every governor evaluates the VRF once
/// per stake unit it owns; the globally smallest hash wins, so the chance of
/// winning is proportional to stake. Each governor runs one ElectionState
/// per round and feeds it every announcement (including its own).
class ElectionState {
 public:
  /// `expected` — governors (with their stake) whose announcements we await.
  /// Expelled governors are excluded by the caller.
  ElectionState(Round round, const StakeLedger& stake,
                const std::set<GovernorId>& expelled);

  /// Verify and absorb an announcement. Returns false (and ignores the
  /// message) if it is malformed: wrong round, wrong ticket count vs stake,
  /// ticket for a different governor, bad VRF proof, duplicate. The ticket
  /// checks run first; then every proof is checked under the announcer's
  /// enrolled key (crypto::vrf_verify_all, one equation per proof). The
  /// announcement is accepted or rejected as a whole: one bad proof rejects
  /// it.
  bool add_announcement(const VrfAnnounceMsg& msg, const identity::IdentityManager& im,
                        NodeId sender_node);

  [[nodiscard]] bool complete() const;
  /// The winner once complete (or once closed on a quorum); nullopt before.
  [[nodiscard]] std::optional<GovernorId> winner() const;

  /// Degraded closure for lossy/partitioned networks: if at least `quorum`
  /// announcements arrived, accept the best ticket seen so far as the
  /// winner without waiting for the stragglers. A majority quorum keeps two
  /// sides of a partition from electing different leaders: at most one side
  /// can reach it. No-op below the quorum or after completion.
  void close(std::size_t quorum);
  [[nodiscard]] bool closed() const { return closed_; }

  /// Minimum-hash tie-break key: (hash, governor, unit), lexicographic.
  struct BestTicket {
    std::uint64_t hash = ~0ULL;
    GovernorId governor;
    std::uint32_t unit = 0;
  };
  [[nodiscard]] const BestTicket& best() const { return best_; }

  [[nodiscard]] Round round() const { return round_; }
  [[nodiscard]] std::size_t announced() const { return seen_.size(); }
  [[nodiscard]] std::size_t expected() const { return expected_.size(); }

 private:
  Round round_;
  std::unordered_map<GovernorId, std::uint64_t> expected_;  // gov -> stake units
  std::set<GovernorId> seen_;
  BestTicket best_;
  bool closed_ = false;
};

/// Build a governor's own announcement for a round.
[[nodiscard]] VrfAnnounceMsg make_announcement(Round round, GovernorId gov,
                                               std::uint64_t stake_units,
                                               const crypto::SigningKey& key);

}  // namespace repchain::protocol
