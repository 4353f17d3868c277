#include "crypto/vrf.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/keygen.hpp"

namespace repchain::crypto {
namespace {

TEST(Vrf, EvaluateVerifyRoundTrip) {
  Rng rng(2001);
  const SigningKey key(random_seed(rng));
  const Bytes alpha = to_bytes("round-1|gov-3|stake-0");
  const VrfResult r = vrf_evaluate(key, alpha);
  const auto out = vrf_verify(key.public_key(), alpha, r.proof);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, r.output);
}

TEST(Vrf, DeterministicOutput) {
  Rng rng(2002);
  const SigningKey key(random_seed(rng));
  const Bytes alpha = to_bytes("same input");
  EXPECT_EQ(vrf_evaluate(key, alpha).output, vrf_evaluate(key, alpha).output);
}

TEST(Vrf, DistinctInputsDistinctOutputs) {
  Rng rng(2003);
  const SigningKey key(random_seed(rng));
  EXPECT_NE(vrf_evaluate(key, to_bytes("a")).output,
            vrf_evaluate(key, to_bytes("b")).output);
}

TEST(Vrf, DistinctKeysDistinctOutputs) {
  Rng rng(2004);
  const SigningKey a(random_seed(rng));
  const SigningKey b(random_seed(rng));
  const Bytes alpha = to_bytes("shared input");
  EXPECT_NE(vrf_evaluate(a, alpha).output, vrf_evaluate(b, alpha).output);
}

TEST(Vrf, WrongKeyProofRejected) {
  Rng rng(2005);
  const SigningKey a(random_seed(rng));
  const SigningKey b(random_seed(rng));
  const Bytes alpha = to_bytes("input");
  const VrfResult r = vrf_evaluate(a, alpha);
  EXPECT_FALSE(vrf_verify(b.public_key(), alpha, r.proof).has_value());
}

TEST(Vrf, WrongInputProofRejected) {
  Rng rng(2006);
  const SigningKey key(random_seed(rng));
  const VrfResult r = vrf_evaluate(key, to_bytes("input-1"));
  EXPECT_FALSE(vrf_verify(key.public_key(), to_bytes("input-2"), r.proof).has_value());
}

TEST(Vrf, TamperedProofRejected) {
  Rng rng(2007);
  const SigningKey key(random_seed(rng));
  const Bytes alpha = to_bytes("input");
  VrfResult r = vrf_evaluate(key, alpha);
  r.proof.bytes[10] ^= 0x01;
  EXPECT_FALSE(vrf_verify(key.public_key(), alpha, r.proof).has_value());
}

TEST(Vrf, OutputToU64BigEndianPrefix) {
  Hash512 out{};
  out[0] = 0x01;
  out[7] = 0xff;
  EXPECT_EQ(vrf_output_to_u64(out), 0x01000000000000ffULL);
}

TEST(Vrf, OutputsLookUniform) {
  // Crude uniformity check: over many (key, input) pairs the leading bit of
  // the u64 projection should be ~50/50.
  Rng rng(2008);
  const SigningKey key(random_seed(rng));
  int high = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const VrfResult r = vrf_evaluate(key, to_bytes("input-" + std::to_string(i)));
    if (vrf_output_to_u64(r.output) >> 63) ++high;
  }
  EXPECT_GT(high, n / 4);
  EXPECT_LT(high, 3 * n / 4);
}

// --- vrf_verify_all: one announcement's proofs under one key -----------------

TEST(VrfVerifyAll, LengthsThatDifferGiveNullopt) {
  Rng rng(2009);
  const SigningKey key(random_seed(rng));
  const VerifyingKey enrolled = VerifyingKey::enrolled(key.public_key());
  const std::vector<Bytes> alphas = {to_bytes("unit-0"), to_bytes("unit-1")};
  const std::vector<Signature> proofs = {vrf_evaluate(key, alphas[0]).proof,
                                         vrf_evaluate(key, alphas[1]).proof};
  ASSERT_TRUE(vrf_verify_all(enrolled, alphas, proofs).has_value());
  EXPECT_FALSE(vrf_verify_all(enrolled, alphas, std::span(proofs).first(1)).has_value());
  EXPECT_FALSE(vrf_verify_all(enrolled, std::span(alphas).first(1), proofs).has_value());
  EXPECT_FALSE(vrf_verify_all(enrolled, {}, proofs).has_value());
}

TEST(VrfVerifyAll, EmptySetGivesNoOutputs) {
  Rng rng(2010);
  const SigningKey key(random_seed(rng));
  const auto outputs = vrf_verify_all(VerifyingKey::enrolled(key.public_key()), {}, {});
  ASSERT_TRUE(outputs.has_value());
  EXPECT_TRUE(outputs->empty());
}

TEST(VrfVerifyAll, OutputsAreEachProofsOrNulloptForOneBadProofAnywhere) {
  // 1-16 proofs under an enrolled and a one-off copy of one key: an honest
  // set gives vrf_verify's outputs in order, and one bad proof at any
  // position gives nullopt.
  Rng rng(2011);
  const SigningKey signer(random_seed(rng));
  const VerifyingKey enrolled = VerifyingKey::enrolled(signer.public_key());
  const VerifyingKey one_off = signer.public_key();
  using Spoiler = void (*)(Bytes& alpha, Signature& proof);
  const std::pair<const char*, Spoiler> spoilers[] = {
      {"wrong alpha", [](Bytes& alpha, Signature&) { alpha.push_back(0x2a); }},
      {"tampered R", [](Bytes&, Signature& proof) { proof.bytes[3] ^= 0x10; }},
      {"tampered S", [](Bytes&, Signature& proof) { proof.bytes[40] ^= 0x10; }},
      {"non-canonical S", [](Bytes&, Signature& proof) { proof.bytes[63] |= 0xf0; }},
  };
  for (std::size_t n = 1; n <= 16; ++n) {
    std::vector<Bytes> alphas;
    std::vector<Signature> proofs;
    for (std::size_t i = 0; i < n; ++i) {
      alphas.push_back(rng.bytes(20));
      proofs.push_back(vrf_evaluate(signer, alphas.back()).proof);
    }
    for (const VerifyingKey* key : {&enrolled, &one_off}) {
      const char* kind = key == &enrolled ? "enrolled" : "one-off";
      const auto outputs = vrf_verify_all(*key, alphas, proofs);
      ASSERT_TRUE(outputs.has_value()) << kind << " n=" << n;
      ASSERT_EQ(outputs->size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::optional((*outputs)[i]), vrf_verify(*key, alphas[i], proofs[i]))
            << kind << " n=" << n << " i=" << i;
      }
      for (const auto& [spoiler, spoil] : spoilers) {
        for (std::size_t pos = 0; pos < n; ++pos) {
          std::vector<Bytes> bad_alphas = alphas;
          std::vector<Signature> bad_proofs = proofs;
          spoil(bad_alphas[pos], bad_proofs[pos]);
          ASSERT_FALSE(vrf_verify(*key, bad_alphas[pos], bad_proofs[pos]).has_value())
              << spoiler;
          EXPECT_FALSE(vrf_verify_all(*key, bad_alphas, bad_proofs).has_value())
              << kind << " " << spoiler << " n=" << n << " pos=" << pos;
        }
      }
    }
  }
}

}  // namespace
}  // namespace repchain::crypto
