#include "protocol/leader_election.hpp"

namespace repchain::protocol {

ElectionState::ElectionState(Round round, const StakeLedger& stake,
                             const std::set<GovernorId>& expelled)
    : round_(round) {
  for (const auto& [gov, units] : stake.balances()) {
    if (!expelled.contains(gov) && units > 0) expected_.emplace(gov, units);
  }
}

bool ElectionState::add_announcement(const VrfAnnounceMsg& msg,
                                     const identity::IdentityManager& im,
                                     NodeId sender_node, Rng& rng) {
  if (msg.round != round_) return false;
  const auto it = expected_.find(msg.governor);
  if (it == expected_.end()) return false;        // unknown or expelled governor
  if (seen_.contains(msg.governor)) return false;  // duplicate announcement
  if (msg.tickets.size() != it->second) return false;  // one ticket per stake unit

  const crypto::VerifyingKey* key =
      im.verification_key(sender_node, identity::Role::kGovernor);
  if (key == nullptr) return false;

  std::vector<Bytes> alphas;
  std::vector<crypto::Signature> proofs;
  alphas.reserve(msg.tickets.size());
  proofs.reserve(msg.tickets.size());
  std::set<std::uint32_t> units_seen;
  for (const auto& t : msg.tickets) {
    if (t.governor != msg.governor) return false;
    if (t.unit >= it->second) return false;        // unit index out of range
    if (!units_seen.insert(t.unit).second) return false;  // duplicate unit
    alphas.push_back(vrf_alpha(round_, t.governor, t.unit));
    proofs.push_back(t.proof);
  }
  // Every ticket's VRF proof against the governor's enrolled key, at once.
  const auto outputs = crypto::vrf_verify_all(*key, alphas, proofs, rng);
  if (!outputs) return false;

  seen_.insert(msg.governor);
  for (std::size_t i = 0; i < outputs->size(); ++i) {
    const std::uint64_t hash = crypto::vrf_output_to_u64((*outputs)[i]);
    const std::uint32_t unit = msg.tickets[i].unit;
    const bool better =
        hash < best_.hash ||
        (hash == best_.hash && (msg.governor < best_.governor ||
                                (msg.governor == best_.governor && unit < best_.unit)));
    if (better) {
      best_.hash = hash;
      best_.governor = msg.governor;
      best_.unit = unit;
    }
  }
  return true;
}

bool ElectionState::complete() const { return seen_.size() == expected_.size(); }

void ElectionState::close(std::size_t quorum) {
  if (complete() || closed_) return;
  if (seen_.size() >= quorum && quorum > 0) closed_ = true;
}

std::optional<GovernorId> ElectionState::winner() const {
  if (expected_.empty() || seen_.empty()) return std::nullopt;
  if (!complete() && !closed_) return std::nullopt;
  return best_.governor;
}

VrfAnnounceMsg make_announcement(Round round, GovernorId gov, std::uint64_t stake_units,
                                 const crypto::SigningKey& key) {
  VrfAnnounceMsg msg;
  msg.round = round;
  msg.governor = gov;
  msg.tickets.reserve(stake_units);
  for (std::uint32_t u = 0; u < stake_units; ++u) {
    VrfTicket t;
    t.governor = gov;
    t.unit = u;
    t.proof = crypto::vrf_evaluate(key, vrf_alpha(round, gov, u)).proof;
    msg.tickets.push_back(t);
  }
  return msg;
}

}  // namespace repchain::protocol
