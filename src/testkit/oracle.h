// The differential-testing oracle: a deliberately naive re-implementation
// of the mechanism, written for obviousness rather than speed, compared
// field-by-field against the optimized production path.
//
// The oracle mirrors the paper's pseudocode directly: Extract (Alg. 2) is
// a per-user scan with push_backs, the CRA round (Alg. 1) re-sorts with
// std::stable_sort and finds the consensus grid point by walking the
// exponent ladder one step at a time, and the payment determination phase
// is core::tree_payments_reference, the O(Σdepth) ancestor walk that
// core/audit also checks against. None of the production shortcuts (CSR
// type index, preorder running sums, depth memos, workspace reuse) appear
// here — which is the point: a bug in any of them shows up as a field
// mismatch.
//
// The one thing the oracle shares with production is the RNG draw
// *sequence*: both consume the same rng::Rng stream in the same order
// (that order is part of the mechanism's determinism contract), so their
// outputs are comparable draw for draw. The round-budget formula
// (compute_round_budget) is also shared — it is closed-form double
// arithmetic with no algorithmic shortcuts to cross-check, and sharing it
// keeps the comparison exact. So is the stall limit (kStallRoundLimit).
#pragma once

#include <string>

#include "core/rit.h"
#include "testkit/fuzz_case.h"

namespace rit::testkit {

/// First field where production and oracle disagree (match == true means
/// none). `field` is a stable identifier ("allocation", "payment", ...)
/// used in failure signatures; `detail` is human-facing context.
struct OracleDiff {
  bool match{true};
  std::string field;
  std::string detail;
};

/// Runs the naive reference mechanism on `c` with a fresh
/// rng::Rng(c.mech_seed). Throws CheckFailure on malformed cases, exactly
/// like the production path.
core::RitResult oracle_run_rit(const FuzzCase& c);

/// Compares production vs oracle results. Counters, allocations and flags
/// are compared exactly; auction payments and derived probabilities with a
/// 1e-12 relative tolerance (same-order sums of identical terms); final
/// tree payments with `payment_tolerance` (the reference's ancestor walk
/// sums contributions in a different order than the preorder running-sum
/// scan).
OracleDiff diff_results(const core::RitResult& prod,
                        const core::RitResult& oracle,
                        double payment_tolerance = 1e-9);

}  // namespace rit::testkit
