#include "protocol/screening.hpp"

namespace repchain::protocol {

using ledger::Label;

ScreeningEngine::ScreeningEngine(reputation::ReputationTable& table,
                                 ledger::ValidationOracle& oracle, Rng& rng)
    : table_(table), oracle_(oracle), rng_(rng) {}

ScreeningOutcome ScreeningEngine::screen(const ledger::Transaction& tx, const ledger::TxId& id,
                                         std::span<const reputation::Report> reports) {
  ++stats_.screened;
  ScreeningOutcome out;
  out.selection = table_.select_reporter(tx.provider, reports, rng_);

  bool do_check = false;
  if (out.selection.label == Label::kValid) {
    // A +1 pick is always validated (Algorithm 2 line 19-20).
    do_check = true;
  } else {
    // A -1 pick is validated with probability 1 - f*Pr[chosen]
    // (line 24: toss a 1 - f*Pr coin; 1 means check).
    const double p_check = 1.0 - table_.params().f * out.selection.pr_chosen;
    do_check = rng_.bernoulli(p_check);
  }

  if (do_check) {
    out.checked = true;
    ++stats_.checked;
    const bool valid = oracle_.validate(id);
    // Algorithm 3, case 2: every reporter's misreport counter moves.
    table_.update_checked(tx.provider, reports, valid);
    if (valid) {
      out.kind = ScreeningKind::kAppendedValid;
      ++stats_.appended_valid;
    } else {
      out.kind = ScreeningKind::kDiscardedInvalid;
      ++stats_.discarded_invalid;
    }
  } else {
    out.kind = ScreeningKind::kRecordedUnchecked;
    ++stats_.unchecked;
  }
  return out;
}

}  // namespace repchain::protocol
