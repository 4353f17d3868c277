#include "protocol/verified_batch.hpp"

namespace repchain::protocol {

void VerifiedBatch::settle(Rng& rng) {
  if (settled_) return;
  settled_ = true;
  if (items_.empty()) return;

  // Malformed items are decided alone; one combined check settles the
  // well-formed rest when they are genuine (the overwhelmingly common case),
  // and otherwise a per-item check pinpoints the forged ones without
  // condemning their batch-mates.
  const std::vector<bool> results = crypto::verify_batch_detailed(items_, rng);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == kNoSlot) continue;
    verdicts_[i] = results[slots_[i]] ? kTrue : kFalse;
  }
}

}  // namespace repchain::protocol
