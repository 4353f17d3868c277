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
/// Returns true iff every signature in the batch is valid; on false the
/// caller falls back to per-signature verification to locate offenders (see
/// verify_batch_detailed).
///
/// This accelerates bulk ingestion paths (a governor verifying a round's
/// uploads); correctness-critical single checks keep using verify().
[[nodiscard]] bool verify_batch(std::span<const BatchItem> items, Rng& rng);

/// Batch-then-fallback: one multi-scalar check; if it fails, per-item
/// verification pinpoints the invalid signatures. Returns per-item validity.
[[nodiscard]] std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items,
                                                      Rng& rng);

}  // namespace repchain::crypto
