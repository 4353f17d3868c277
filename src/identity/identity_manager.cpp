#include "identity/identity_manager.hpp"

#include "common/errors.hpp"

namespace repchain::identity {

IdentityManager::IdentityManager(const crypto::PrivateSeed& ca_seed) : ca_key_(ca_seed) {}

Certificate IdentityManager::enroll(NodeId node, Role role, const crypto::PublicKey& key,
                                    SimTime issued_at) {
  if (members_.contains(node)) {
    throw ConfigError("node already enrolled with the identity manager");
  }
  Certificate cert;
  cert.subject = node;
  cert.role = role;
  cert.public_key = key;
  cert.issued_at = issued_at;
  cert.serial = next_serial_++;
  cert.ca_signature = ca_key_.sign(cert.signed_preimage());
  members_.emplace(node, Member{cert, crypto::VerifyingKey::enrolled(key)});
  return cert;
}

bool IdentityManager::is_enrolled(NodeId node) const { return members_.contains(node); }

const Certificate& IdentityManager::certificate(NodeId node) const {
  const auto it = members_.find(node);
  if (it == members_.end()) throw ConfigError("unknown node in identity manager");
  return it->second.cert;
}

std::optional<Role> IdentityManager::role_of(NodeId node) const {
  const auto it = members_.find(node);
  if (it == members_.end()) return std::nullopt;
  return it->second.cert.role;
}

bool IdentityManager::verify_certificate(const Certificate& cert) const {
  if (is_revoked(cert.subject)) return false;
  const auto it = members_.find(cert.subject);
  if (it == members_.end()) return false;
  // The registered certificate must match byte-for-byte (prevents swapping
  // a stale cert for the same subject).
  if (it->second.cert.encode() != cert.encode()) return false;
  return crypto::verify(ca_key_.public_key(), cert.signed_preimage(), cert.ca_signature);
}

bool IdentityManager::authenticate(NodeId node, BytesView message,
                                   const crypto::Signature& sig) const {
  const crypto::VerifyingKey* key = verification_key(node);
  return key != nullptr && crypto::verify(*key, message, sig);
}

bool IdentityManager::authorize(NodeId node, Role required_role, BytesView message,
                                const crypto::Signature& sig) const {
  const crypto::VerifyingKey* key = verification_key(node, required_role);
  return key != nullptr && crypto::verify(*key, message, sig);
}

const crypto::VerifyingKey* IdentityManager::verification_key(
    NodeId node, std::optional<Role> required_role) const {
  if (is_revoked(node)) return nullptr;
  const auto it = members_.find(node);
  if (it == members_.end()) return nullptr;
  if (required_role && it->second.cert.role != *required_role) return nullptr;
  return &it->second.key;
}

void IdentityManager::revoke(NodeId node) { revoked_.insert(node); }

bool IdentityManager::is_revoked(NodeId node) const { return revoked_.contains(node); }

}  // namespace repchain::identity
