#include "protocol/verified_batch.hpp"

namespace repchain::protocol {

void VerifiedBatch::settle() {
  if (settled_) return;
  settled_ = true;
  if (items_.empty()) return;

  const std::vector<bool> results = crypto::verify_batch_detailed(items_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == kNoSlot) continue;
    verdicts_[i] = results[slots_[i]] ? kTrue : kFalse;
  }
}

}  // namespace repchain::protocol
