#include "identity/identity_manager.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "crypto/keygen.hpp"

namespace repchain::identity {
namespace {

struct Fixture {
  Fixture() : rng(321), im(crypto::random_seed(rng)) {}

  crypto::SigningKey new_key() { return crypto::SigningKey(crypto::random_seed(rng)); }

  Rng rng;
  IdentityManager im;
};

TEST(Certificate, EncodeDecodeRoundTrip) {
  Fixture f;
  const auto key = f.new_key();
  const Certificate cert = f.im.enroll(NodeId(7), Role::kCollector, key.public_key(), 42);
  const Certificate decoded = Certificate::decode(cert.encode());
  EXPECT_EQ(decoded.subject, NodeId(7));
  EXPECT_EQ(decoded.role, Role::kCollector);
  EXPECT_EQ(decoded.public_key, key.public_key());
  EXPECT_EQ(decoded.issued_at, 42u);
  EXPECT_EQ(decoded.serial, cert.serial);
  EXPECT_EQ(decoded.ca_signature, cert.ca_signature);
}

TEST(Certificate, DecodeRejectsBadRole) {
  Fixture f;
  const auto key = f.new_key();
  Certificate cert = f.im.enroll(NodeId(1), Role::kProvider, key.public_key());
  Bytes enc = cert.encode();
  enc[4] = 99;  // role byte follows the u32 subject
  EXPECT_THROW(Certificate::decode(enc), DecodeError);
}

TEST(Certificate, DecodeRejectsTruncation) {
  Fixture f;
  const auto key = f.new_key();
  const Certificate cert = f.im.enroll(NodeId(1), Role::kProvider, key.public_key());
  Bytes enc = cert.encode();
  enc.pop_back();
  EXPECT_THROW(Certificate::decode(enc), DecodeError);
}

TEST(RoleName, AllRolesNamed) {
  EXPECT_STREQ(role_name(Role::kProvider), "provider");
  EXPECT_STREQ(role_name(Role::kCollector), "collector");
  EXPECT_STREQ(role_name(Role::kGovernor), "governor");
}

TEST(IdentityManager, EnrollAndLookup) {
  Fixture f;
  const auto key = f.new_key();
  f.im.enroll(NodeId(3), Role::kGovernor, key.public_key());
  EXPECT_TRUE(f.im.is_enrolled(NodeId(3)));
  EXPECT_FALSE(f.im.is_enrolled(NodeId(4)));
  EXPECT_EQ(f.im.role_of(NodeId(3)), Role::kGovernor);
  EXPECT_EQ(f.im.role_of(NodeId(4)), std::nullopt);
  EXPECT_EQ(f.im.member_count(), 1u);
}

TEST(IdentityManager, DoubleEnrollThrows) {
  Fixture f;
  const auto key = f.new_key();
  f.im.enroll(NodeId(3), Role::kGovernor, key.public_key());
  EXPECT_THROW(f.im.enroll(NodeId(3), Role::kProvider, key.public_key()), ConfigError);
}

TEST(IdentityManager, CertificateLookupUnknownThrows) {
  Fixture f;
  EXPECT_THROW((void)f.im.certificate(NodeId(9)), ConfigError);
}

TEST(IdentityManager, IssuedCertificateVerifies) {
  Fixture f;
  const auto key = f.new_key();
  const Certificate cert = f.im.enroll(NodeId(5), Role::kCollector, key.public_key());
  EXPECT_TRUE(f.im.verify_certificate(cert));
}

TEST(IdentityManager, TamperedCertificateRejected) {
  Fixture f;
  const auto key = f.new_key();
  Certificate cert = f.im.enroll(NodeId(5), Role::kCollector, key.public_key());
  cert.role = Role::kGovernor;  // privilege escalation attempt
  EXPECT_FALSE(f.im.verify_certificate(cert));
}

TEST(IdentityManager, ForeignCaCertificateRejected) {
  Fixture f;
  Rng rng2(999);
  IdentityManager other(crypto::random_seed(rng2));
  const auto key = f.new_key();
  const Certificate foreign = other.enroll(NodeId(5), Role::kCollector, key.public_key());
  EXPECT_FALSE(f.im.verify_certificate(foreign));
}

TEST(IdentityManager, AuthenticateAcceptsEnrolledSigner) {
  Fixture f;
  const auto key = f.new_key();
  f.im.enroll(NodeId(8), Role::kProvider, key.public_key());
  const Bytes msg = to_bytes("hello governors");
  EXPECT_TRUE(f.im.authenticate(NodeId(8), msg, key.sign(msg)));
}

TEST(IdentityManager, AuthenticateRejectsImpersonation) {
  Fixture f;
  const auto honest = f.new_key();
  const auto attacker = f.new_key();
  f.im.enroll(NodeId(8), Role::kProvider, honest.public_key());
  const Bytes msg = to_bytes("forged message");
  EXPECT_FALSE(f.im.authenticate(NodeId(8), msg, attacker.sign(msg)));
}

TEST(IdentityManager, AuthenticateRejectsUnknownNode) {
  Fixture f;
  const auto key = f.new_key();
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(f.im.authenticate(NodeId(12), msg, key.sign(msg)));
}

TEST(IdentityManager, AuthorizeChecksRole) {
  Fixture f;
  const auto key = f.new_key();
  f.im.enroll(NodeId(2), Role::kCollector, key.public_key());
  const Bytes msg = to_bytes("upload");
  EXPECT_TRUE(f.im.authorize(NodeId(2), Role::kCollector, msg, key.sign(msg)));
  EXPECT_FALSE(f.im.authorize(NodeId(2), Role::kGovernor, msg, key.sign(msg)));
}

TEST(IdentityManager, RevocationBlocksAuthentication) {
  Fixture f;
  const auto key = f.new_key();
  const Certificate cert = f.im.enroll(NodeId(6), Role::kCollector, key.public_key());
  const Bytes msg = to_bytes("m");
  ASSERT_TRUE(f.im.authenticate(NodeId(6), msg, key.sign(msg)));

  f.im.revoke(NodeId(6));
  EXPECT_TRUE(f.im.is_revoked(NodeId(6)));
  EXPECT_FALSE(f.im.authenticate(NodeId(6), msg, key.sign(msg)));
  EXPECT_FALSE(f.im.verify_certificate(cert));
}

TEST(IdentityManager, EnrolledKeyIsDecodedOnce) {
  Fixture f;
  const auto key = f.new_key();
  f.im.enroll(NodeId(3), Role::kGovernor, key.public_key());
  const crypto::VerifyingKey* vk = f.im.verification_key(NodeId(3), Role::kGovernor);
  ASSERT_NE(vk, nullptr);
  EXPECT_EQ(vk->public_key(), key.public_key());
  ASSERT_NE(vk->point(), nullptr);
  // The same decoded key on every lookup.
  EXPECT_EQ(f.im.verification_key(NodeId(3)), vk);
  const Bytes msg = to_bytes("block");
  EXPECT_TRUE(crypto::verify(*vk, msg, key.sign(msg)));
}

TEST(IdentityManager, EnrolledKeyCarriesSharedTables) {
  Fixture f;
  const auto key = f.new_key();
  f.im.enroll(NodeId(5), Role::kProvider, key.public_key());
  const crypto::VerifyingKey* vk = f.im.verification_key(NodeId(5));
  ASSERT_NE(vk, nullptr);
  const Bytes msg = to_bytes("tx");
  EXPECT_TRUE(f.im.authenticate(NodeId(5), msg, key.sign(msg)));
  // The member's key was enrolled, so its first check built the split
  // tables, and a copy (as in a verification batch) shares them.
  ASSERT_NE(vk->tables(), nullptr);
  const crypto::VerifyingKey copy = *vk;
  EXPECT_EQ(copy.tables(), vk->tables());
}

TEST(IdentityManager, OffCurveKeyEnrollsButVerifiesNothing) {
  Fixture f;
  // A y coordinate with no matching x: not a curve point.
  crypto::PublicKey off_curve;
  for (std::uint8_t y0 = 2;; ++y0) {
    off_curve.bytes[0] = y0;
    if (!crypto::point_decompress(off_curve.bytes)) break;
  }
  const Certificate cert = f.im.enroll(NodeId(4), Role::kCollector, off_curve);
  EXPECT_TRUE(f.im.is_enrolled(NodeId(4)));
  EXPECT_TRUE(f.im.verify_certificate(cert));
  const crypto::VerifyingKey* vk = f.im.verification_key(NodeId(4));
  ASSERT_NE(vk, nullptr);
  EXPECT_EQ(vk->public_key(), off_curve);
  EXPECT_EQ(vk->point(), nullptr);

  const auto signer = f.new_key();
  const Bytes msg = to_bytes("upload");
  const crypto::Signature sig = signer.sign(msg);
  EXPECT_FALSE(f.im.authenticate(NodeId(4), msg, sig));
  EXPECT_FALSE(f.im.authorize(NodeId(4), Role::kCollector, msg, sig));
  EXPECT_FALSE(crypto::verify(*vk, msg, sig));
}

TEST(IdentityManager, SerialsAreUnique) {
  Fixture f;
  const Certificate a = f.im.enroll(NodeId(1), Role::kProvider, f.new_key().public_key());
  const Certificate b = f.im.enroll(NodeId(2), Role::kProvider, f.new_key().public_key());
  EXPECT_NE(a.serial, b.serial);
}

}  // namespace
}  // namespace repchain::identity
