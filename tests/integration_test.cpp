// End-to-end integration tests: the full pipeline (graph -> tree ->
// population -> job -> RIT -> metrics) at small scale, plus the Fig. 9
// experiment flow on a reduced instance.
#include <gtest/gtest.h>

#include <vector>

#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "core/rit.h"
#include "platform/supervisor.h"
#include "sim/guarded.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

namespace rit {
namespace {

sim::Scenario base_scenario() {
  sim::Scenario s;
  s.num_users = 800;
  s.num_types = 5;
  s.tasks_per_type = 40;
  s.k_max = 6;
  s.initial_joiners = 5;
  s.seed = 2024;
  return s;
}

// make_instance + run_trial on a fresh workspace.
sim::TrialMetrics trial_metrics(const sim::Scenario& s, std::uint64_t trial) {
  core::RitWorkspace ws;
  return sim::run_trial(s, sim::make_instance(s, trial), ws);
}

// A one-worker sweep through the trial engine with the default policy.
sim::AggregateMetrics sweep(const sim::Scenario& s, std::uint64_t trials) {
  return platform::run_many(s, trials, 1, sim::GuardPolicy{}).metrics;
}

TEST(Integration, PaperScaledScenarioMostlySucceeds) {
  const sim::Scenario s = base_scenario();
  const sim::AggregateMetrics agg = sweep(s, 8);
  // With supply ~ 800 * 3.5 / 5 = 560 asks per type against demand 40, the
  // allocation should essentially always complete.
  EXPECT_GE(agg.success_rate(), 0.75);
  EXPECT_GT(agg.total_payment_rit.mean(), 0.0);
}

TEST(Integration, PaymentPhaseAddsBoundedPremium) {
  const sim::Scenario s = base_scenario();
  for (std::uint64_t t = 0; t < 5; ++t) {
    const sim::TrialMetrics m = trial_metrics(s, t);
    if (!m.success) continue;
    EXPECT_GE(m.total_payment_rit, m.total_payment_auction);
    EXPECT_LE(m.total_payment_rit, 2.0 * m.total_payment_auction + 1e-6);
    EXPECT_GE(m.avg_utility_rit, m.avg_utility_auction);
  }
}

TEST(Integration, WholePipelineIsReproducible) {
  const sim::Scenario s = base_scenario();
  const sim::TrialMetrics a = trial_metrics(s, 3);
  const sim::TrialMetrics b = trial_metrics(s, 3);
  EXPECT_EQ(a.success, b.success);
  EXPECT_DOUBLE_EQ(a.avg_utility_rit, b.avg_utility_rit);
  EXPECT_DOUBLE_EQ(a.total_payment_rit, b.total_payment_rit);
  EXPECT_DOUBLE_EQ(a.solicitation_premium, b.solicitation_premium);
}

TEST(Integration, MoreUsersDepressAverageUtility) {
  // The Fig. 6(a) trend at test scale: doubling the user pool increases
  // competition and decreases average utility. Averaged over trials with a
  // generous margin (the trend is statistical, not per-run).
  sim::Scenario small = base_scenario();
  small.num_users = 600;
  sim::Scenario large = base_scenario();
  large.num_users = 2400;
  const auto agg_small = sweep(small, 6);
  const auto agg_large = sweep(large, 6);
  EXPECT_GT(agg_small.avg_utility_rit.mean(),
            agg_large.avg_utility_rit.mean());
}

TEST(Integration, BiggerJobsRaiseTotalPayment) {
  // The Fig. 7(b) trend at test scale.
  sim::Scenario small_job = base_scenario();
  small_job.tasks_per_type = 20;
  sim::Scenario large_job = base_scenario();
  large_job.tasks_per_type = 80;
  const auto agg_small = sweep(small_job, 6);
  const auto agg_large = sweep(large_job, 6);
  EXPECT_GT(agg_large.total_payment_rit.mean(),
            agg_small.total_payment_rit.mean());
}

TEST(Integration, Fig9FlowSybilUtilityDoesNotGrowWithIdentities) {
  // Reduced Fig. 9: a victim with capability 8, identities 2 vs 8, same
  // truthful ask value. Expected attacker utility must not increase with
  // the identity count (sybil-proofness; utility typically shrinks).
  const sim::Scenario s = base_scenario();
  sim::TrialInstance inst = sim::make_instance(s, 1);
  // Upgrade a mid-tree user into the designated attacker.
  const std::uint32_t victim = 17;
  inst.population.truthful_asks[victim].quantity = 8;
  inst.population.truthful_asks[victim].value = 5.5;
  inst.population.costs[victim] = 5.5;

  auto mean_attacker_utility = [&](std::uint32_t delta) {
    stats::OnlineStats st;
    for (int trial = 0; trial < 120; ++trial) {
      rng::Rng plan_rng(1000 + trial);
      const auto plan =
          attack::random_plan(inst.tree, inst.population.truthful_asks, victim,
                              delta, 5.5, plan_rng);
      const auto attacked =
          attack::apply_sybil(inst.tree, inst.population.truthful_asks, plan);
      rng::Rng rng(0xf19 + static_cast<std::uint64_t>(trial));
      const auto r = core::run_rit(inst.job, attacked.asks, attacked.tree,
                                   s.mechanism, rng);
      st.add(attacked.attacker_utility(r, 5.5));
    }
    return st;
  };

  const auto few = mean_attacker_utility(2);
  const auto many = mean_attacker_utility(8);
  EXPECT_LE(many.mean(),
            few.mean() + few.ci95_half_width() + many.ci95_half_width() + 0.05);
}

TEST(Integration, DegradedFlagSurfacesOnAggressiveParameters) {
  // Fig. 9's own parameter regime (m_i small vs K_max) must raise the
  // probability_degraded diagnostic rather than silently claiming H.
  sim::Scenario s = base_scenario();
  s.tasks_per_type = 10;  // 2*K_max = 12 > m_i = 10
  const sim::TrialMetrics m = trial_metrics(s, 0);
  EXPECT_TRUE(m.probability_degraded);
}

}  // namespace
}  // namespace rit
