#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha512.hpp"

namespace repchain::crypto {

/// Verifiable random function built from deterministic Ed25519 signatures:
///
///   proof  = Sign_sk(alpha)
///   output = SHA-512("repchain-vrf" || proof)
///
/// Verification checks the signature and recomputes the output. The paper
/// calls for the VRF of Micali–Rabin–Vadhan [27] in leader election; this
/// signature-based construction preserves the two properties the protocol
/// uses — pseudorandomness of the output to other parties before reveal, and
/// public verifiability that the output belongs to the claimed key — which is
/// sufficient in a permissioned deployment where keys are registered with the
/// Identity Manager (see DESIGN.md, substitutions).
struct VrfResult {
  Hash512 output{};
  Signature proof{};
};

/// Evaluate the VRF on input alpha.
[[nodiscard]] VrfResult vrf_evaluate(const SigningKey& key, BytesView alpha);

/// Verify a proof for alpha under key; returns the output iff valid.
[[nodiscard]] std::optional<Hash512> vrf_verify(const VerifyingKey& key, BytesView alpha,
                                                const Signature& proof);

/// Verify proofs[i] for alphas[i] under one key, every proof by its own
/// equation in one verify_batch_detailed call. Returns every output, in
/// order, iff every proof verifies, so the verdict is that of one vrf_verify
/// per proof; nullopt as well when the lengths differ.
[[nodiscard]] std::optional<std::vector<Hash512>> vrf_verify_all(
    const VerifyingKey& key, std::span<const Bytes> alphas,
    std::span<const Signature> proofs);

/// First 8 bytes of the VRF output as a big-endian integer — the "hash value"
/// compared in leader election (least wins).
[[nodiscard]] std::uint64_t vrf_output_to_u64(const Hash512& output);

}  // namespace repchain::crypto
