// RIT (Algorithm 3): the full Robust Incentive Tree mechanism.
//
// Phase 1 (auction): for every task type tau_i, run CRA rounds over the
// still-unconsumed unit asks until either all m_i tasks are allocated or the
// per-type round budget `max` is exhausted. The budget is what makes the
// whole phase (K_max, H)-truthful: each round is K_max-truthful with
// probability >= P_round (Lemma 6.2), the per-type target is
// eta = H^(1/m), and P_round^max >= eta (Lemma 6.3).
//
// Phase 2 (payment determination): if and only if the job was fully
// allocated, pay every participant its auction payment plus the depth-
// discounted auction payments of its different-type descendants
// (payment.h). Otherwise the run fails closed: all allocations and
// payments are zeroed (Alg. 3 line 27), because a partially-paid partial
// allocation would break the incentive analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/cra.h"
#include "core/extract.h"
#include "core/payment.h"
#include "core/types.h"
#include "rng/rng.h"
#include "tree/incentive_tree.h"

namespace rit::core {

/// kRunToCompletion only: a type gives up after this many consecutive
/// zero-winner rounds (e.g. a lone remaining ask can never clear the
/// consensus hurdle; see cra.h).
inline constexpr std::uint32_t kStallRoundLimit = 100;

/// Round budget for one task type (Alg. 3 line 7 / Lemma 6.3).
struct RoundBudget {
  /// Worst-case (q -> 0) per-round truthfulness lower bound of Lemma 6.2.
  double per_round_bound{0.0};
  /// Maximum number of CRA rounds for this type.
  std::uint32_t max_rounds{0};
  /// True when per_round_bound was non-positive or the floor() came out 0
  /// and the budget was clamped to one round anyway — the H guarantee does
  /// not hold for such parameters (DESIGN.md ambiguity #3).
  bool degraded{false};
};

/// Computes the Lemma 6.2 bound and the resulting round budget.
/// eta is the per-type truthfulness target H^(1/m).
RoundBudget compute_round_budget(std::uint32_t m_i, std::uint32_t k_max,
                                 double eta, const RitConfig& config);

/// One CRA round as seen from outside (recorded when
/// RitConfig::record_round_trace is set).
struct RoundTrace {
  std::uint32_t round{0};  // 0-based within the type
  double clearing_price{0.0};
  std::uint32_t winners{0};
  std::uint32_t q_before{0};  // unallocated tasks entering the round
  std::uint64_t raw_count{0};
  std::uint64_t consensus_count{0};
  bool used_budget_price{false};
};

/// Per-type diagnostics of the auction phase.
struct TypeAuctionInfo {
  TaskType type;
  std::uint32_t demanded{0};   // m_i
  std::uint32_t allocated{0};  // tasks actually assigned
  std::uint32_t rounds_used{0};
  RoundBudget budget;
  /// Lower bound on the probability that every round run for this type was
  /// K_max-truthful: per_round_bound ^ rounds_used (0 when the bound is
  /// vacuous). Under kTheoretical this is >= eta by construction; under
  /// kRunToCompletion it reports how much of the guarantee was spent.
  double achieved_bound{1.0};
  /// Per-round trace; empty unless RitConfig::record_round_trace.
  std::vector<RoundTrace> rounds;
};

struct RitResult {
  /// True iff every task of the job was allocated (payments are live).
  bool success{false};

  /// x_j: tasks allocated to participant j. Zeroed on failure.
  std::vector<std::uint32_t> allocation;
  /// p_j^A: auction payments (phase 1). Zeroed on failure.
  std::vector<double> auction_payment;
  /// p_j: final payments (phase 2). Zeroed on failure; equal to
  /// auction_payment when the tree carries no cross-type descendants.
  std::vector<double> payment;

  std::vector<TypeAuctionInfo> type_info;
  /// eta = H^(1/m) actually used.
  double eta{0.0};
  /// K_max the budget formula used: the observed max k_j over the asks.
  std::uint32_t k_max{0};
  /// True if any type's round budget was degraded (see RoundBudget) or, in
  /// kRunToCompletion mode, any type spent more rounds than the H-budget.
  bool probability_degraded{false};
  /// Product of the per-type achieved bounds: a lower bound on the
  /// probability that the whole auction phase was K_max-truthful. Equals at
  /// least H under kTheoretical with healthy parameters.
  double achieved_probability{1.0};

  /// U_j = p_j - x_j * c_j for participant j given its true unit cost.
  double utility_of(std::uint32_t participant, double unit_cost) const {
    return core::utility(payment[participant], allocation[participant],
                         unit_cost);
  }
  /// Same, but paying only the auction payment (the "auction phase" series
  /// of Figs. 6-8).
  double auction_utility_of(std::uint32_t participant,
                            double unit_cost) const {
    return core::utility(auction_payment[participant],
                         allocation[participant], unit_cost);
  }

  double total_payment() const;
  double total_auction_payment() const;
};

/// Reusable scratch for run_rit_into. One mechanism run executes many CRA
/// rounds, and a sweep executes many mechanism runs; keeping one
/// workspace per thread means the per-round buffers (extract's runs,
/// CRA's run buffers and bitmaps, the settle table) are heap-allocated
/// once and then reused at their high-water capacity.
/// Contents are scratch only — nothing carries state between runs.
struct RitWorkspace {
  CraWorkspace cra;
  CraOutcome round;
  /// The round's book: one run per user with capacity left, and the value
  /// order the round gathers from type_index as far as it reads it.
  ExtractedRuns runs;
  /// Per-type CSR over the ask vector, rebuilt once per auction so each
  /// round's extraction touches only its own type's askers; its value
  /// buckets are sorted as the rounds' bands reach them.
  AskTypeIndex type_index;
  PaymentWorkspace payment;
  /// The round's settle table: repeated[c] is its clearing price added c
  /// times from 0.0, a first-time winner's payment for c tasks.
  std::vector<double> repeated;
  std::vector<TaskType> types;
};

/// Runs the complete mechanism. `asks[j]` is participant j's sealed bid;
/// participant j sits at tree node j+1. Throws CheckFailure on malformed
/// input (ask/tree size mismatch, unknown task types, zero quantities).
RitResult run_rit(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng);

/// Scratch- and result-reusing form: identical draws and values, but all
/// per-round buffers live in `ws` (see RitWorkspace) and the result's
/// vectors are refilled in place, so a sweep that keeps one of each per
/// worker performs no steady-state allocations in either phase. run_rit
/// delegates here with a fresh workspace.
void run_rit_into(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng, RitWorkspace& ws, RitResult& out);

/// Runs only the auction phase, through `ws` into `out` like
/// run_rit_into; both result payment vectors are set to the auction
/// payments. The sweep runner calls the two phases apart to time each.
/// run_rit_into is exactly this followed by run_payment_phase_into on the
/// same result, so run_rit on a flat tree (tree::flat_tree) gives this
/// result, payments included: the tree-free truthful auction.
void run_auction_phase_into(const Job& job, std::span<const Ask> asks,
                            const RitConfig& config, rng::Rng& rng,
                            RitWorkspace& ws, RitResult& out);

/// Phase 2 on the result of run_auction_phase_into: when the auction
/// succeeded, replaces `out.payment` with the tree payments; a failed
/// result is left as the auction phase wrote it. Draws no randomness.
/// Throws CheckFailure when the tree and the asks disagree in size.
void run_payment_phase_into(std::span<const Ask> asks,
                            const tree::IncentiveTree& tree,
                            const RitConfig& config, RitWorkspace& ws,
                            RitResult& out);

}  // namespace rit::core
