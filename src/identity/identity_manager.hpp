#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/ids.hpp"
#include "identity/certificate.hpp"

namespace repchain::identity {

/// The Identity Manager of §3.1: records members and roles, acts as a
/// Certificate Authority, and supplies the key registry that every
/// `verify(d, m)` call resolves against. In a permissioned network there is
/// exactly one IM, trusted by all parties.
class IdentityManager {
 public:
  explicit IdentityManager(const crypto::PrivateSeed& ca_seed);

  [[nodiscard]] const crypto::PublicKey& ca_public_key() const {
    return ca_key_.public_key();
  }

  /// Enroll a member: binds (node, role, key) in a CA-signed certificate and
  /// decodes the key as an enrolled crypto::VerifyingKey, whose tables the
  /// member's first verification builds. A key that is not a curve point, or
  /// has small order, still enrolls; no signature verifies under it. Throws
  /// ConfigError if the node is already enrolled.
  Certificate enroll(NodeId node, Role role, const crypto::PublicKey& key,
                     SimTime issued_at = 0);

  [[nodiscard]] bool is_enrolled(NodeId node) const;
  /// Throws ConfigError for unknown nodes.
  [[nodiscard]] const Certificate& certificate(NodeId node) const;
  [[nodiscard]] std::optional<Role> role_of(NodeId node) const;

  /// Certificate chain check: CA signature valid, subject enrolled with this
  /// exact certificate, and not revoked.
  [[nodiscard]] bool verify_certificate(const Certificate& cert) const;

  /// Authenticate `message` as signed by `node`'s enrolled key. False for
  /// unknown or revoked nodes — this is the inner step of the protocol's
  /// verify(d, m).
  [[nodiscard]] bool authenticate(NodeId node, BytesView message,
                                  const crypto::Signature& sig) const;

  /// Authorization: authenticate + role check.
  [[nodiscard]] bool authorize(NodeId node, Role required_role, BytesView message,
                               const crypto::Signature& sig) const;

  /// The non-cryptographic half of authenticate/authorize: the enrolled,
  /// unrevoked (and role-matching, when `required_role` is given) key for
  /// `node`, or nullptr. Batch-verification front-ends run this gate per
  /// item, collect the surviving (key, message, sig) triples into one
  /// batched check, and so decide exactly what the per-item
  /// authenticate/authorize calls would have decided. The key was decoded
  /// once, at enrollment, and its copies in a batch share its tables.
  [[nodiscard]] const crypto::VerifyingKey* verification_key(
      NodeId node, std::optional<Role> required_role = std::nullopt) const;

  void revoke(NodeId node);
  [[nodiscard]] bool is_revoked(NodeId node) const;

  [[nodiscard]] std::size_t member_count() const { return members_.size(); }

 private:
  struct Member {
    Certificate cert;
    crypto::VerifyingKey key;  // cert.public_key, enrolled (tables on first use)
  };

  crypto::SigningKey ca_key_;
  std::unordered_map<NodeId, Member> members_;
  std::unordered_set<NodeId> revoked_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace repchain::identity
