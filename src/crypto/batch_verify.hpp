#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"

namespace repchain::crypto {

/// One signature in a batch. The key is decoded; a PublicKey converts.
struct BatchItem {
  VerifyingKey pub;
  Bytes message;
  Signature sig;
};

/// Batch signature verification with random linear combination:
///
///   (sum_i z_i S_i) B  ==  sum_i z_i R_i  +  sum_i z_i k_i A_i
///
/// with fresh random 128-bit coefficients z_i, so corrupted signatures
/// cannot cancel each other out except with negligible probability. Returns
/// true iff every signature in the batch is valid; on false the caller
/// falls back to per-signature verification to locate offenders (see
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
