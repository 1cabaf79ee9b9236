// The differential-testing oracle: a deliberately naive re-implementation
// of the mechanism, written for obviousness rather than speed, compared
// field-by-field against the optimized production path. It is the one
// naive reference per algorithm: ritcs-fuzz compares whole runs against
// oracle_run_rit, and the unit tests compare rounds against its Extract
// (extract_test, against core::extract_runs_into) and its CRA round
// (cra_test, against core::run_cra_runs).
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

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/rit.h"
#include "rng/rng.h"
#include "testkit/fuzz_case.h"

namespace rit::testkit {

/// Alg. 2's unit-ask vector for one type: alpha and its owner map lambda.
struct NaiveAlpha {
  std::vector<double> values;
  std::vector<std::uint32_t> owner;
};

/// Alg. 2, verbatim: scans every user in index order and emits one unit
/// ask per remaining task of `type`, remaining[j] (the paper's k'_j) for
/// user j, which must not exceed its asked quantity; `remaining` has one
/// entry per ask. Production's per-type CSR keeps exactly this order.
NaiveAlpha naive_extract(TaskType type, std::span<const core::Ask> asks,
                         std::span<const std::uint32_t> remaining);

/// One naive CRA round: which unit asks won, at what price, and the
/// diagnostics core::CraOutcome reports for the same round.
struct NaiveRound {
  std::vector<bool> won;
  double clearing_price{0.0};
  std::uint32_t num_winners{0};
  double sample_min{0.0};
  std::uint64_t raw_count{0};
  std::uint64_t consensus_count{0};
  bool used_budget_price{false};
};

/// Alg. 1, step by step, over the unit asks `values`, drawing from `rng`
/// in production's order: every ask is sorted by value with each group of
/// equal values shuffled, whatever the threshold.
NaiveRound naive_cra(std::span<const double> values,
                     const core::CraParams& params, rng::Rng& rng);

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
