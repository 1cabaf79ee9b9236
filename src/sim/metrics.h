// Per-trial metrics and cross-trial aggregation for the Sec. 7 experiments.
#pragma once

#include <cstdint>

#include "stats/online_stats.h"

namespace rit::sim {

/// The four quantities Sec. 7-B tracks, for both the auction phase alone
/// and the full mechanism (the two series in every panel of Figs. 6-8).
struct TrialMetrics {
  bool success{false};

  double avg_utility_auction{0.0};
  double avg_utility_rit{0.0};
  double total_payment_auction{0.0};
  double total_payment_rit{0.0};
  /// Both times come from the one mechanism run of the trial: the auction
  /// phase is timed inside it, so runtime_auction_ms <= runtime_rit_ms.
  double runtime_auction_ms{0.0};
  double runtime_rit_ms{0.0};

  /// Solicitation premium sum(p_j - p_j^A); Sec. 7-C bounds it by the total
  /// auction payment.
  double solicitation_premium{0.0};

  std::uint64_t tasks_allocated{0};
  bool probability_degraded{false};
};

struct AggregateMetrics {
  stats::OnlineStats avg_utility_auction;
  stats::OnlineStats avg_utility_rit;
  stats::OnlineStats total_payment_auction;
  stats::OnlineStats total_payment_rit;
  stats::OnlineStats runtime_auction_ms;
  stats::OnlineStats runtime_rit_ms;
  stats::OnlineStats solicitation_premium;
  /// Tasks the full mechanism actually allocated per trial (0 on failure
  /// under zero_on_failure — the stat shows how much work the fail-closed
  /// rule throws away).
  stats::OnlineStats tasks_allocated;
  std::uint64_t trials{0};
  std::uint64_t successes{0};
  /// Trials whose truthfulness guarantee was degraded (RitResult::
  /// probability_degraded): vacuous Lemma 6.2 bound, order-statistic
  /// pricing, or a kRunToCompletion overrun of the H-budget.
  std::uint64_t degraded_trials{0};
  /// Trials contained by the fault-tolerant runner (sim/guarded.h): the
  /// trial threw or hit the --trial-timeout-ms watchdog. Excluded from
  /// `trials` and every stat above; the per-trial details live in the
  /// run's FaultLedger.
  std::uint64_t failed_trials{0};
  /// Trials whose metrics came back non-finite (NaN/inf) and were
  /// quarantined before they could poison the Welford accumulators.
  std::uint64_t quarantined_trials{0};

  /// Folds one trial in (Welford update on every stat).
  void add(const TrialMetrics& t);
  /// Folds a whole aggregate in (parallel combine). Covers every field;
  /// a static_assert in metrics.cpp fails the build if a field is added
  /// without extending add() and merge().
  void merge(const AggregateMetrics& other);
  double success_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(successes) /
                             static_cast<double>(trials);
  }
  double degraded_rate() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(degraded_trials) /
                             static_cast<double>(trials);
  }
  /// Records one contained trial failure (throw/timeout).
  void note_failed() { ++failed_trials; }
  /// Records one quarantined trial (non-finite metrics).
  void note_quarantined() { ++quarantined_trials; }
  /// Total trials the runner attempted, contained faults included.
  std::uint64_t attempted() const {
    return trials + failed_trials + quarantined_trials;
  }
};

}  // namespace rit::sim
