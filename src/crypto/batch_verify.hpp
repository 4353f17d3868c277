#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"

namespace repchain::crypto {

/// One signature in a batch. The key is decoded; a PublicKey converts to a
/// one-off key, and an enrolled key's copy here shares its tables.
struct BatchItem {
  VerifyingKey pub;
  Bytes message;
  Signature sig;
};

/// All-or-nothing batch verification with a random linear combination:
///
///   [8](sum_i z_i S_i) B  ==  [8] sum_i z_i R_i  +  [8] sum_i z_i k_i A_i
///
/// with fresh random 128-bit coefficients z_i, so corrupted signatures
/// cannot cancel each other out except with negligible probability. This is
/// verify()'s cofactored equation, combined: a signature whose only defect is
/// a small-order component passes both, whatever the coefficients. Items
/// whose keys have equal bytes fold into one A term (sum of their z_i k_i),
/// which is what makes the combination pay off for many signatures under few
/// keys, as a VRF announcement's tickets are.
///
/// Every item is decoded first (decode_signature), and a malformed one
/// decides the batch without drawing. A one-item batch is verify() and draws
/// nothing either. So the verdict is that of one verify per signature (the
/// combined equation passes a bad set with probability about 2^-128). The
/// Rng must be a stream private to the caller. True when empty.
[[nodiscard]] bool verify_batch(std::span<const BatchItem> items, Rng& rng);

/// Per-item verdicts, each verify's own: every item checks its own equation
/// without decoding R (see verify), and the set's points share one inversion
/// to be compressed. No randomness, so a set's verdicts depend on nothing
/// but its items.
[[nodiscard]] std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items);

}  // namespace repchain::crypto
