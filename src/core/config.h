// Mechanism configuration knobs.
//
// Defaults reproduce the paper (H = 0.8, discount base 1/2). The remaining
// knobs parameterize the ambiguities catalogued in DESIGN.md §1 that a
// bench, tool or scenario file sets to a non-default value; the others
// (the empty CRA sample, the zero-round budget, K_max, the stall limit)
// are fixed in the code.
#pragma once

#include <cstdint>

namespace rit::core {

/// How many CRA rounds the auction phase may spend per task type.
enum class RoundBudgetPolicy {
  /// Exactly Alg. 3 line 7: at most `max` rounds, preserving the
  /// (K_max, H) guarantee. At the paper's own evaluation scale this budget
  /// is 1-2 rounds per type and the allocation frequently cannot complete
  /// (the run then fails closed) — see DESIGN.md ambiguity #3.
  kTheoretical,
  /// Keep running rounds until the demand is filled, supply is exhausted,
  /// or kStallRoundLimit (rit.h) consecutive rounds make no progress. This
  /// is the only reading under which the paper's Sec. 7 figures are
  /// reproducible; the achieved truthfulness bound (per-round bound ^
  /// rounds actually used) is reported in TypeAuctionInfo/RitResult so the
  /// weakening is visible rather than silent.
  kRunToCompletion,
};

/// How CRA selects winners and sets the per-round price — the ablation knob
/// behind the paper's central design argument (Sec. 4-A / Lemma 6.2).
enum class PriceMode {
  /// The paper's Algorithm 1: a sampled threshold plus consensus-rounded
  /// winner count. Coalitions of K_max asks only move the outcome with
  /// probability bounded by Lemma 6.2.
  kConsensus,
  /// The strawman: a deterministic (q+m_i+1)-st lowest price auction per
  /// round (each round is exactly the k-th price auction of Sec. 4-A,
  /// truthful for independent bidders but price-manipulable by coalitions
  /// and thus by sybil identities). bench_ablation_consensus and the
  /// collusion tests quantify the difference.
  kOrderStatistic,
};

struct RitConfig {
  /// The paper's H: RIT is truthful and sybil-proof with probability >= H.
  double h = 0.8;

  PriceMode price_mode = PriceMode::kConsensus;

  RoundBudgetPolicy round_budget_policy = RoundBudgetPolicy::kTheoretical;

  /// Base of the per-depth discount in the payment determination phase
  /// (Alg. 3 line 24 uses 1/2). Must be in (0, 1).
  double discount_base = 0.5;

  /// Base c of the consensus grid {c^(z+y)} used by CRA's rounding step —
  /// and therefore the base of the log in the Lemma 6.2 failure term
  /// (a coalition moving the count by k flips the consensus on a y-set of
  /// measure log_c(z/(z-k))). 2.0 is the paper's Goldberg–Hartline setting
  /// (DESIGN.md ambiguity #1); larger bases buy collusion protection at
  /// the cost of coarser winner counts (bench_ablation_gridbase).
  double consensus_log_base = 2.0;

  /// Record a per-round trace (price, winners, consensus diagnostics) in
  /// TypeAuctionInfo::rounds. Off by default: traces cost memory
  /// proportional to rounds and exist for debugging/teaching, not for the
  /// mechanism itself.
  bool record_round_trace = false;

  /// Alg. 3 lines 26-28: if the job cannot be fully allocated within the
  /// round budget, zero every allocation and payment. Disable to keep the
  /// partial allocation (useful for diagnostics; violates the paper).
  bool zero_on_failure = true;

  /// Worker threads for intra-trial parallel passes of the mechanism. No
  /// mechanism pass parallelizes: the payment phase is one serial preorder
  /// scan that ignores this value, and tree construction is serial too.
  /// The field stays because perfbench sets it and passes it through.
  /// 1 = serial (default); 0 = one per hardware thread. Deliberately
  /// excluded from result/checkpoint identity: it cannot change what a run
  /// computes.
  unsigned intra_threads = 1;
};

}  // namespace rit::core
