#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "sim/guarded.h"
#include "sim/metrics.h"
#include "sim/parallel.h"
#include "sim/progress.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/workload.h"

namespace rit::sim {
namespace {

Scenario small_scenario() {
  Scenario s;
  s.num_users = 400;
  s.num_types = 3;
  s.tasks_per_type = 20;
  s.k_max = 5;
  s.initial_joiners = 4;
  s.seed = 7;
  return s;
}

// make_instance + run_trial on a fresh workspace.
TrialMetrics trial_metrics(const Scenario& s, std::uint64_t trial) {
  core::RitWorkspace ws;
  return run_trial(s, make_instance(s, trial), ws);
}

// A sweep through the one trial engine with the default (strict) policy.
AggregateMetrics sweep(const Scenario& s, std::uint64_t trials,
                       unsigned threads, const ProgressFn& progress = {}) {
  return run_many_guarded(s, trials, threads, GuardPolicy{}, nullptr, 0,
                          progress)
      .metrics;
}

TEST(Scenario, GraphKindRoundTrip) {
  for (GraphKind k :
       {GraphKind::kBarabasiAlbert, GraphKind::kErdosRenyi,
        GraphKind::kWattsStrogatz, GraphKind::kConfigurationModel,
        GraphKind::kStar, GraphKind::kPath}) {
    EXPECT_EQ(parse_graph_kind(to_string(k)), k);
  }
  EXPECT_THROW(parse_graph_kind("nope"), CheckFailure);
}

TEST(Scenario, DefaultMechanismRunsToCompletion) {
  const core::RitConfig cfg = Scenario::completion_mechanism();
  EXPECT_EQ(cfg.round_budget_policy, core::RoundBudgetPolicy::kRunToCompletion);
  EXPECT_EQ(Scenario{}.mechanism.round_budget_policy,
            core::RoundBudgetPolicy::kRunToCompletion);
  // Only the round budget departs from the mechanism defaults.
  const core::RitConfig paper;
  EXPECT_EQ(cfg.h, paper.h);
  EXPECT_EQ(cfg.discount_base, paper.discount_base);
  EXPECT_EQ(cfg.consensus_log_base, paper.consensus_log_base);
  EXPECT_EQ(cfg.price_mode, paper.price_mode);
}

TEST(Scenario, TrialSeedsAreDistinctAcrossTrialsAndComponents) {
  Scenario s;
  std::set<std::uint64_t> seen;
  for (std::uint64_t t = 0; t < 20; ++t) {
    for (std::uint64_t c = 0; c < 4; ++c) {
      seen.insert(s.trial_seed(t, c));
    }
  }
  EXPECT_EQ(seen.size(), 80u);
}

TEST(Scenario, TrialSeedDeterministic) {
  Scenario a;
  Scenario b;
  EXPECT_EQ(a.trial_seed(3, 1), b.trial_seed(3, 1));
  b.seed = 43;
  EXPECT_NE(a.trial_seed(3, 1), b.trial_seed(3, 1));
}

TEST(Workload, PopulationMatchesDistributionSupports) {
  const Scenario s = small_scenario();
  rng::Rng rng(1);
  const Population pop = generate_population(s, rng);
  ASSERT_EQ(pop.size(), s.num_users);
  for (std::uint32_t j = 0; j < pop.size(); ++j) {
    const auto& a = pop.truthful_asks[j];
    EXPECT_LT(a.type.value, s.num_types);
    EXPECT_GE(a.quantity, 1u);
    EXPECT_LE(a.quantity, s.k_max);
    EXPECT_GT(a.value, 0.0);
    EXPECT_LE(a.value, s.cost_max);
    EXPECT_EQ(a.value, pop.costs[j]);  // truthful asks reveal the cost
  }
}

TEST(Workload, PopulationUsesAllTypes) {
  const Scenario s = small_scenario();
  rng::Rng rng(2);
  const Population pop = generate_population(s, rng);
  std::set<std::uint32_t> types;
  for (const auto& a : pop.truthful_asks) types.insert(a.type.value);
  EXPECT_EQ(types.size(), s.num_types);
}

TEST(Workload, FixedDemandJob) {
  const Scenario s = small_scenario();
  rng::Rng rng(3);
  const core::Job job = generate_job(s, rng);
  EXPECT_EQ(job.num_types(), 3u);
  EXPECT_EQ(job.total_tasks(), 60u);
}

TEST(Workload, RangedDemandJob) {
  Scenario s = small_scenario();
  s.demand_lo = 10;
  s.demand_hi = 50;
  rng::Rng rng(4);
  const core::Job job = generate_job(s, rng);
  for (std::uint32_t t = 0; t < job.num_types(); ++t) {
    EXPECT_GT(job.demand(TaskType{t}), 10u);
    EXPECT_LE(job.demand(TaskType{t}), 50u);
  }
}

TEST(Workload, GraphGenerationEachKind) {
  Scenario s = small_scenario();
  for (GraphKind k :
       {GraphKind::kBarabasiAlbert, GraphKind::kErdosRenyi,
        GraphKind::kWattsStrogatz, GraphKind::kConfigurationModel,
        GraphKind::kStar, GraphKind::kPath}) {
    s.graph = k;
    rng::Rng rng(5);
    const graph::Graph g = generate_graph(s, rng);
    EXPECT_EQ(g.num_nodes(), s.num_users) << to_string(k);
  }
}

TEST(Workload, TreeCoversEveryUser) {
  const Scenario s = small_scenario();
  rng::Rng rng(6);
  const graph::Graph g = generate_graph(s, rng);
  EXPECT_EQ(generate_tree(s, g).num_participants(), s.num_users);
}

TEST(Runner, InstanceIsDeterministic) {
  const Scenario s = small_scenario();
  const TrialInstance a = make_instance(s, 0);
  const TrialInstance b = make_instance(s, 0);
  EXPECT_EQ(a.population.truthful_asks.size(),
            b.population.truthful_asks.size());
  for (std::size_t j = 0; j < a.population.truthful_asks.size(); ++j) {
    EXPECT_EQ(a.population.truthful_asks[j], b.population.truthful_asks[j]);
  }
  EXPECT_EQ(a.tree.parents(), b.tree.parents());
  EXPECT_EQ(a.mechanism_seed, b.mechanism_seed);
  EXPECT_EQ(a.job.demand_vector(), b.job.demand_vector());
}

TEST(Runner, InstanceTreeMatchesGraphBfs) {
  // make_instance draws the graph from component 0 of the trial seed. For
  // Barabási–Albert it builds the forest without the graph, for the other
  // kinds through generate_graph + generate_tree; both must give the tree
  // generate_tree builds from that stream.
  Scenario s = small_scenario();
  for (GraphKind kind : {GraphKind::kBarabasiAlbert, GraphKind::kErdosRenyi}) {
    s.graph = kind;
    for (std::uint64_t trial = 0; trial < 2; ++trial) {
      rng::Rng graph_rng(s.trial_seed(trial, 0));
      const graph::Graph g = generate_graph(s, graph_rng);
      EXPECT_EQ(make_instance(s, trial).tree.parents(),
                generate_tree(s, g).parents())
          << to_string(kind) << " trial " << trial;
    }
  }
}

TEST(Runner, DifferentTrialsDiffer) {
  const Scenario s = small_scenario();
  const TrialInstance a = make_instance(s, 0);
  const TrialInstance b = make_instance(s, 1);
  EXPECT_NE(a.mechanism_seed, b.mechanism_seed);
  bool any_ask_differs = false;
  for (std::size_t j = 0; j < a.population.truthful_asks.size(); ++j) {
    if (!(a.population.truthful_asks[j] == b.population.truthful_asks[j])) {
      any_ask_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_ask_differs);
}

TEST(Runner, TrialMetricsInternallyConsistent) {
  const Scenario s = small_scenario();
  const TrialMetrics m = trial_metrics(s, 0);
  EXPECT_GE(m.runtime_rit_ms, 0.0);
  EXPECT_GE(m.runtime_auction_ms, 0.0);
  if (m.success) {
    EXPECT_EQ(m.tasks_allocated, 60u);
    // The payment phase can only add money.
    EXPECT_GE(m.total_payment_rit, m.total_payment_auction - 1e-9);
    EXPECT_GE(m.avg_utility_rit, m.avg_utility_auction - 1e-12);
    // Budget bound: premium <= total auction payment.
    EXPECT_LE(m.solicitation_premium, m.total_payment_auction + 1e-9);
  } else {
    EXPECT_EQ(m.total_payment_rit, 0.0);
  }
}

TEST(Runner, PairedSeriesShareTheAuctionOutcome) {
  // total_payment_auction is derived from the same phase-1 results the full
  // run used, so premium == total_rit - total_auction exactly.
  const Scenario s = small_scenario();
  for (std::uint64_t t = 0; t < 3; ++t) {
    const TrialMetrics m = trial_metrics(s, t);
    if (!m.success) continue;
    EXPECT_NEAR(m.solicitation_premium,
                m.total_payment_rit - m.total_payment_auction, 1e-6);
  }
}

TEST(Runner, OneRunMatchesStandaloneAuctionAndFullRuns) {
  // run_trial runs the mechanism once; its auction columns must equal a
  // separate auction-phase run on the same seed, and its RIT columns a
  // separate full run.
  const Scenario s = small_scenario();
  core::RitWorkspace ws;
  for (std::uint64_t t = 0; t < 4; ++t) {  // reuse ws across trials
    const TrialInstance inst = make_instance(s, t);
    const auto& asks = inst.population.truthful_asks;
    const TrialMetrics m = run_trial(s, inst, ws);

    rng::Rng auction_rng(inst.mechanism_seed);
    core::RitWorkspace auction_ws;
    core::RitResult auction;
    core::run_auction_phase_into(inst.job, asks, s.mechanism, auction_rng,
                                 auction_ws, auction);
    rng::Rng full_rng(inst.mechanism_seed);
    const core::RitResult full =
        core::run_rit(inst.job, asks, inst.tree, s.mechanism, full_rng);

    const double n = static_cast<double>(inst.population.size());
    double auction_utility = 0.0;
    double rit_utility = 0.0;
    for (std::uint32_t j = 0; j < inst.population.size(); ++j) {
      auction_utility +=
          auction.auction_utility_of(j, inst.population.costs[j]);
      rit_utility += full.utility_of(j, inst.population.costs[j]);
    }
    EXPECT_EQ(m.avg_utility_auction, auction_utility / n);
    EXPECT_EQ(m.total_payment_auction, auction.total_auction_payment());
    EXPECT_EQ(m.avg_utility_rit, rit_utility / n);
    EXPECT_EQ(m.total_payment_rit, full.total_payment());
    EXPECT_EQ(m.success, full.success);
    EXPECT_LE(m.runtime_auction_ms, m.runtime_rit_ms);
  }
}

TEST(Runner, OneWorkerSweepAggregates) {
  const Scenario s = small_scenario();
  std::uint64_t calls = 0;
  std::uint64_t last_done = 0;
  const AggregateMetrics agg =
      sweep(s, 4, 1, [&](std::uint64_t done, std::uint64_t total) {
        ++calls;
        last_done = done;
        EXPECT_LE(done, total);
      });
  EXPECT_EQ(agg.trials, 4u);
  // Progress is rate-limited (sim/progress.h): anywhere from one callback
  // (fast trials, all but the final throttled) to one per trial, and the
  // final "4/4" always gets through.
  EXPECT_GE(calls, 1u);
  EXPECT_LE(calls, 4u);
  EXPECT_EQ(last_done, 4u);
  EXPECT_EQ(agg.avg_utility_rit.count(), 4u);
  EXPECT_GE(agg.success_rate(), 0.0);
  EXPECT_LE(agg.success_rate(), 1.0);
}

// Every thread count sees the exact same per-trial samples as one worker;
// only the Welford merge order differs. So counts, minima, maxima and
// the integer tallies must be bit-identical, and means agree to rounding.
void expect_stat_equivalent(const stats::OnlineStats& parallel,
                            const stats::OnlineStats& serial,
                            const char* label) {
  EXPECT_EQ(parallel.count(), serial.count()) << label;
  if (serial.count() == 0) return;
  EXPECT_DOUBLE_EQ(parallel.min(), serial.min()) << label;
  EXPECT_DOUBLE_EQ(parallel.max(), serial.max()) << label;
  EXPECT_NEAR(parallel.mean(), serial.mean(),
              1e-9 * (1.0 + std::abs(serial.mean())))
      << label;
}

void expect_aggregate_equivalent(const AggregateMetrics& parallel,
                                 const AggregateMetrics& serial) {
  EXPECT_EQ(parallel.trials, serial.trials);
  EXPECT_EQ(parallel.successes, serial.successes);
  EXPECT_EQ(parallel.degraded_trials, serial.degraded_trials);
  expect_stat_equivalent(parallel.avg_utility_auction,
                         serial.avg_utility_auction, "avg_utility_auction");
  expect_stat_equivalent(parallel.avg_utility_rit, serial.avg_utility_rit,
                         "avg_utility_rit");
  expect_stat_equivalent(parallel.total_payment_auction,
                         serial.total_payment_auction,
                         "total_payment_auction");
  expect_stat_equivalent(parallel.total_payment_rit, serial.total_payment_rit,
                         "total_payment_rit");
  expect_stat_equivalent(parallel.solicitation_premium,
                         serial.solicitation_premium, "solicitation_premium");
  expect_stat_equivalent(parallel.tasks_allocated, serial.tasks_allocated,
                         "tasks_allocated");
  // Runtimes are wall-clock measurements, not derived from the seeds —
  // sample counts must still line up even though the values differ.
  EXPECT_EQ(parallel.runtime_auction_ms.count(),
            serial.runtime_auction_ms.count());
  EXPECT_EQ(parallel.runtime_rit_ms.count(), serial.runtime_rit_ms.count());
}

TEST(Runner, ParallelMatchesSerialOnEveryFieldForManyThreadCounts) {
  const Scenario s = small_scenario();
  const AggregateMetrics serial = sweep(s, 9, 1);
  for (const unsigned threads : {2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    expect_aggregate_equivalent(sweep(s, 9, threads), serial);
  }
}

TEST(Runner, ParallelProgressIsMonotoneAndReachesTotal) {
  const Scenario s = small_scenario();
  std::vector<std::uint64_t> reported;
  sweep(s, 7, 3, [&](std::uint64_t done, std::uint64_t total) {
    EXPECT_EQ(total, 7u);
    reported.push_back(done);
  });
  ASSERT_FALSE(reported.empty());
  for (std::size_t i = 1; i < reported.size(); ++i) {
    EXPECT_LT(reported[i - 1], reported[i]);
  }
  EXPECT_EQ(reported.back(), 7u);
}

TEST(Runner, ReusedWorkspaceMatchesFreshWorkspace) {
  const Scenario s = small_scenario();
  core::RitWorkspace ws;
  for (std::uint64_t t = 0; t < 3; ++t) {  // reuse ws across trials
    const TrialInstance inst = make_instance(s, t);
    const TrialMetrics fresh = trial_metrics(s, t);
    const TrialMetrics reused = run_trial(s, inst, ws);
    EXPECT_EQ(reused.success, fresh.success);
    EXPECT_EQ(reused.tasks_allocated, fresh.tasks_allocated);
    EXPECT_EQ(reused.probability_degraded, fresh.probability_degraded);
    EXPECT_DOUBLE_EQ(reused.avg_utility_rit, fresh.avg_utility_rit);
    EXPECT_DOUBLE_EQ(reused.total_payment_rit, fresh.total_payment_rit);
    EXPECT_DOUBLE_EQ(reused.total_payment_auction,
                     fresh.total_payment_auction);
    EXPECT_DOUBLE_EQ(reused.solicitation_premium, fresh.solicitation_premium);
  }
}

TEST(Runner, ParallelMatchesSerial) {
  const Scenario s = small_scenario();
  const AggregateMetrics serial = sweep(s, 6, 1);
  const AggregateMetrics parallel = sweep(s, 6, 3);
  EXPECT_EQ(parallel.trials, serial.trials);
  EXPECT_EQ(parallel.successes, serial.successes);
  // Means agree up to merge-order rounding; the sample sets are identical.
  EXPECT_NEAR(parallel.avg_utility_rit.mean(), serial.avg_utility_rit.mean(),
              1e-9);
  EXPECT_NEAR(parallel.total_payment_rit.mean(),
              serial.total_payment_rit.mean(), 1e-6);
  EXPECT_DOUBLE_EQ(parallel.total_payment_rit.min(),
                   serial.total_payment_rit.min());
  EXPECT_DOUBLE_EQ(parallel.total_payment_rit.max(),
                   serial.total_payment_rit.max());
}

TEST(Runner, ParallelIsDeterministicAcrossRuns) {
  const Scenario s = small_scenario();
  const AggregateMetrics a = sweep(s, 5, 2);
  const AggregateMetrics b = sweep(s, 5, 2);
  EXPECT_DOUBLE_EQ(a.avg_utility_rit.mean(), b.avg_utility_rit.mean());
  EXPECT_DOUBLE_EQ(a.solicitation_premium.mean(),
                   b.solicitation_premium.mean());
}

TEST(Runner, ParallelHandlesEdgeThreadCounts) {
  const Scenario s = small_scenario();
  const AggregateMetrics one = sweep(s, 3, 1);
  EXPECT_EQ(one.trials, 3u);
  const AggregateMetrics more_threads_than_trials = sweep(s, 2, 8);
  EXPECT_EQ(more_threads_than_trials.trials, 2u);
  const AggregateMetrics zero = sweep(s, 0, 4);
  EXPECT_EQ(zero.trials, 0u);
}

TEST(ParallelTrials, EachTrialRunsOnceInItsStrideWorkersContext) {
  for (const unsigned workers : {1u, 3u}) {
    SCOPED_TRACE(workers);
    std::vector<std::vector<std::uint64_t>> contexts(workers);
    parallel_trials(10, contexts,
                    [](std::vector<std::uint64_t>& seen, std::uint64_t t) {
                      seen.push_back(t);
                    });
    for (unsigned w = 0; w < workers; ++w) {
      std::vector<std::uint64_t> expected;
      for (std::uint64_t t = w; t < 10; t += workers) expected.push_back(t);
      EXPECT_EQ(contexts[w], expected) << "worker " << w;
    }
  }
}

TEST(ParallelTrials, ProgressIsMonotoneAndEndsAtTheTotal) {
  std::vector<std::uint64_t> reported;
  std::vector<int> contexts(2, 0);
  parallel_trials(
      9, contexts, [](int& ran, std::uint64_t) { ++ran; },
      [&reported](std::uint64_t done, std::uint64_t total) {
        EXPECT_EQ(total, 9u);
        reported.push_back(done);
      });
  EXPECT_EQ(contexts[0] + contexts[1], 9);
  ASSERT_FALSE(reported.empty());
  for (std::size_t i = 1; i < reported.size(); ++i) {
    EXPECT_LT(reported[i - 1], reported[i]);
  }
  EXPECT_EQ(reported.back(), 9u);
}

TEST(SharedProgress, ResumedCountStartsFromTheCursor) {
  std::vector<std::uint64_t> reported;
  SharedProgress progress(
      [&reported](std::uint64_t done, std::uint64_t) {
        reported.push_back(done);
      },
      10, 7);
  for (int i = 0; i < 3; ++i) progress.tick();
  ASSERT_FALSE(reported.empty());
  EXPECT_EQ(reported.front(), 8u);  // the first tick after the cursor
  EXPECT_EQ(reported.back(), 10u);
  SharedProgress silent({}, 3);
  silent.tick();  // no callback: ticking is a no-op
}

TEST(ProgressThrottle, FakeClockDrivesAcceptance) {
  std::uint64_t now = 0;
  ProgressThrottle throttle(100'000'000, [&now] { return now; });

  EXPECT_TRUE(throttle.should_fire());  // first call always fires
  now += 50'000'000;
  EXPECT_FALSE(throttle.should_fire());  // only 50 ms since last accepted
  now += 49'999'999;
  EXPECT_FALSE(throttle.should_fire());  // 99.999999 ms: still under
  now += 1;
  EXPECT_TRUE(throttle.should_fire());  // exactly 100 ms: fires
  EXPECT_FALSE(throttle.should_fire());  // same instant again: throttled
}

TEST(ProgressThrottle, FinalAlwaysFires) {
  std::uint64_t now = 0;
  ProgressThrottle throttle(100'000'000, [&now] { return now; });
  EXPECT_TRUE(throttle.should_fire());
  EXPECT_TRUE(throttle.should_fire(/*is_final=*/true));  // zero gap, but final
}

TEST(ProgressThrottle, AcceptanceResetsTheWindow) {
  std::uint64_t now = 0;
  ProgressThrottle throttle(100'000'000, [&now] { return now; });
  EXPECT_TRUE(throttle.should_fire());
  now += 250'000'000;
  EXPECT_TRUE(throttle.should_fire());  // long gap fires...
  now += 99'999'999;
  // ...and the window restarts at the accepted firing, not at the last ask.
  EXPECT_FALSE(throttle.should_fire());
}

TEST(Metrics, AggregateCountsSuccesses) {
  AggregateMetrics agg;
  TrialMetrics ok;
  ok.success = true;
  TrialMetrics bad;
  bad.success = false;
  agg.add(ok);
  agg.add(ok);
  agg.add(bad);
  EXPECT_EQ(agg.trials, 3u);
  EXPECT_EQ(agg.successes, 2u);
  EXPECT_NEAR(agg.success_rate(), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, AddFoldsTasksAllocatedAndDegradedTrials) {
  // The two fields add() used to drop silently.
  AggregateMetrics agg;
  TrialMetrics a;
  a.tasks_allocated = 40;
  a.probability_degraded = true;
  TrialMetrics b;
  b.tasks_allocated = 60;
  b.probability_degraded = false;
  agg.add(a);
  agg.add(b);
  EXPECT_EQ(agg.tasks_allocated.count(), 2u);
  EXPECT_DOUBLE_EQ(agg.tasks_allocated.mean(), 50.0);
  EXPECT_DOUBLE_EQ(agg.tasks_allocated.min(), 40.0);
  EXPECT_DOUBLE_EQ(agg.tasks_allocated.max(), 60.0);
  EXPECT_EQ(agg.degraded_trials, 1u);
  EXPECT_NEAR(agg.degraded_rate(), 0.5, 1e-12);
}

TEST(Metrics, MergeCoversEveryField) {
  // Split a trial set between two aggregates, merge, and require the result
  // to match folding them all into one — field by field. Together with the
  // sizeof static_assert in metrics.cpp this keeps merge() from silently
  // ignoring a newly added member.
  std::vector<TrialMetrics> trials(6);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    TrialMetrics& t = trials[i];
    const auto x = static_cast<double>(i + 1);
    t.success = (i % 2) == 0;
    t.avg_utility_auction = 0.5 * x;
    t.avg_utility_rit = 0.75 * x;
    t.total_payment_auction = 10.0 * x;
    t.total_payment_rit = 12.0 * x;
    t.runtime_auction_ms = 0.1 * x;
    t.runtime_rit_ms = 0.2 * x;
    t.solicitation_premium = 2.0 * x;
    t.tasks_allocated = 10 * (i + 1);
    t.probability_degraded = (i % 3) == 0;
  }
  AggregateMetrics whole;
  AggregateMetrics left;
  AggregateMetrics right;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    whole.add(trials[i]);
    (i < 4 ? left : right).add(trials[i]);
  }
  left.merge(right);
  expect_aggregate_equivalent(left, whole);
  expect_stat_equivalent(left.runtime_rit_ms, whole.runtime_rit_ms,
                         "runtime_rit_ms");
  expect_stat_equivalent(left.runtime_auction_ms, whole.runtime_auction_ms,
                         "runtime_auction_ms");
  // ci95 needs the merged M2, not just mean/min/max.
  EXPECT_NEAR(left.avg_utility_rit.ci95_half_width(),
              whole.avg_utility_rit.ci95_half_width(), 1e-9);
}

TEST(Metrics, MergeWithEmptySidesIsIdentity) {
  TrialMetrics t;
  t.tasks_allocated = 3;
  t.probability_degraded = true;
  AggregateMetrics filled;
  filled.add(t);

  AggregateMetrics left;
  left.merge(filled);  // empty.merge(filled)
  EXPECT_EQ(left.trials, 1u);
  EXPECT_EQ(left.degraded_trials, 1u);
  EXPECT_EQ(left.tasks_allocated.count(), 1u);

  AggregateMetrics empty;
  filled.merge(empty);  // filled.merge(empty)
  EXPECT_EQ(filled.trials, 1u);
  EXPECT_EQ(filled.tasks_allocated.count(), 1u);
}

}  // namespace
}  // namespace rit::sim
