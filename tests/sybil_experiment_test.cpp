#include <gtest/gtest.h>

#include "common/check.h"
#include "attack/sybil_experiment.h"

namespace rit::attack {
namespace {

sim::Scenario tiny_scenario() {
  sim::Scenario s;
  s.num_users = 400;
  s.num_types = 4;
  s.demand_lo = 10;
  s.demand_hi = 40;
  s.k_max = 10;
  s.initial_joiners = 4;
  s.seed = 5;
  return s;
}

TEST(SybilExperiment, ProducesOnePointPerDelta) {
  SybilExperimentConfig cfg;
  cfg.victim_capability = 8;
  cfg.delta_lo = 2;
  cfg.delta_hi = 5;
  cfg.trials = 3;
  const auto series = run_sybil_experiment(tiny_scenario(), cfg);
  ASSERT_EQ(series.size(), 4u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i].identities, 2 + i);
    EXPECT_EQ(series[i].utility.size(), cfg.ask_values.size());
    for (const auto& st : series[i].utility) {
      EXPECT_EQ(st.count(), cfg.trials);
    }
    EXPECT_EQ(series[i].honest.count(), cfg.trials);
  }
}

TEST(SybilExperiment, HonestReferenceIsDeltaIndependent) {
  // The honest run does not involve the plan, so the reference must be
  // identical at every identity count.
  SybilExperimentConfig cfg;
  cfg.victim_capability = 6;
  cfg.delta_lo = 2;
  cfg.delta_hi = 4;
  cfg.trials = 4;
  const auto series = run_sybil_experiment(tiny_scenario(), cfg);
  ASSERT_GE(series.size(), 2u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i].honest.mean(), series[0].honest.mean());
  }
}

TEST(SybilExperiment, DeterministicAcrossRuns) {
  SybilExperimentConfig cfg;
  cfg.victim_capability = 6;
  cfg.delta_lo = 3;
  cfg.delta_hi = 3;
  cfg.trials = 3;
  const auto a = run_sybil_experiment(tiny_scenario(), cfg);
  const auto b = run_sybil_experiment(tiny_scenario(), cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t v = 0; v < a[i].utility.size(); ++v) {
      EXPECT_DOUBLE_EQ(a[i].utility[v].mean(), b[i].utility[v].mean());
    }
  }
}

TEST(SybilExperiment, ThreadCountDoesNotChangeTheSeries) {
  // Trials fan out over per-worker accumulators that merge in worker
  // order, so only the last bits of a mean may move with the thread count.
  SybilExperimentConfig cfg;
  cfg.victim_capability = 6;
  cfg.delta_lo = 2;
  cfg.delta_hi = 3;
  cfg.trials = 7;
  cfg.threads = 1;
  const auto serial = run_sybil_experiment(tiny_scenario(), cfg);
  cfg.threads = 3;
  const auto parallel = run_sybil_experiment(tiny_scenario(), cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].identities, serial[i].identities);
    EXPECT_EQ(parallel[i].honest.count(), cfg.trials);
    EXPECT_NEAR(parallel[i].honest.mean(), serial[i].honest.mean(), 1e-9);
    ASSERT_EQ(parallel[i].utility.size(), serial[i].utility.size());
    for (std::size_t v = 0; v < serial[i].utility.size(); ++v) {
      EXPECT_EQ(parallel[i].utility[v].count(), cfg.trials);
      EXPECT_NEAR(parallel[i].utility[v].mean(), serial[i].utility[v].mean(),
                  1e-9);
    }
  }
}

TEST(SybilExperiment, AttackNeverBeatsHonestByMuch) {
  // The core sybil-proofness read-out at test scale: expected attacker
  // utility stays within statistical slack of the honest reference.
  SybilExperimentConfig cfg;
  cfg.victim_capability = 10;
  cfg.delta_lo = 2;
  cfg.delta_hi = 10;
  cfg.trials = 15;
  const auto series = run_sybil_experiment(tiny_scenario(), cfg);
  for (const auto& point : series) {
    for (std::size_t v = 0; v < point.utility.size(); ++v) {
      const double slack = point.utility[v].ci95_half_width() +
                           point.honest.ci95_half_width() + 0.05;
      EXPECT_LE(point.utility[v].mean(), point.honest.mean() + slack)
          << "delta=" << point.identities << " ask index " << v;
    }
  }
}

TEST(SybilExperiment, RejectsInvalidConfig) {
  SybilExperimentConfig cfg;
  cfg.delta_lo = 1;  // must be >= 2
  EXPECT_THROW(run_sybil_experiment(tiny_scenario(), cfg), CheckFailure);
  cfg.delta_lo = 2;
  cfg.delta_hi = 30;  // above capability
  cfg.victim_capability = 17;
  EXPECT_THROW(run_sybil_experiment(tiny_scenario(), cfg), CheckFailure);
  cfg.delta_hi = 10;
  cfg.ask_values.clear();
  EXPECT_THROW(run_sybil_experiment(tiny_scenario(), cfg), CheckFailure);
}

}  // namespace
}  // namespace rit::attack
