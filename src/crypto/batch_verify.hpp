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

/// Batch signature verification with random linear combination:
///
///   [8](sum_i z_i S_i) B  ==  [8] sum_i z_i R_i  +  [8] sum_i z_i k_i A_i
///
/// with fresh random 128-bit coefficients z_i, so corrupted signatures
/// cannot cancel each other out except with negligible probability. This is
/// verify()'s cofactored equation, combined: a signature whose only defect is
/// a small-order component passes both, whatever the coefficients. Items
/// whose keys have equal bytes fold into one A term (sum of their z_i k_i).
///
/// Every item is decoded first (decode_signature). A malformed item is
/// false on its own, as verify decides it. A set with one well-formed item
/// checks verify()'s single equation instead of the combined one, and draws
/// no coefficients. So both functions below give the verdicts of one verify
/// per signature (the combined equation passes a bad set with probability
/// about 2^-128). The Rng must be a stream private to the caller.
///
/// verify_batch: true iff every signature in the batch is valid (true when
/// empty).
[[nodiscard]] bool verify_batch(std::span<const BatchItem> items, Rng& rng);

/// Per-item verdicts, each equal to verify's: the malformed items are false,
/// and the well-formed rest are settled by one check as in verify_batch.
/// Only when that check fails does each well-formed item check its own
/// equation (from the parts already decoded) to locate the offenders.
[[nodiscard]] std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items,
                                                      Rng& rng);

}  // namespace repchain::crypto
