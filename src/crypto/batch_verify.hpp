#pragma once

#include <span>
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

/// Per-item verdicts, each verify's own: every item checks its own equation
/// without decoding R (see verify), and the set's points share one inversion
/// to be compressed. No randomness, so a set's verdicts depend on nothing
/// but its items. Every set of signatures is judged this way.
[[nodiscard]] std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items);

/// True iff every verify_batch_detailed verdict is true (so true when
/// empty). Nothing in the library calls it: perfbench's
/// crypto.verify_batch_us_per_sig row times it. The Rng is not read; the
/// argument goes with the next benchmark change.
[[nodiscard]] bool verify_batch(std::span<const BatchItem> items, Rng& rng);

}  // namespace repchain::crypto
