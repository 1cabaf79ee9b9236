#include "sim/runner.h"

#include "common/parallel.h"
#include "core/payment.h"
#include "core/rit.h"
#include "obs/obs.h"
#include "sim/guarded.h"
#include "sim/progress.h"
#include "stats/timer.h"

namespace rit::sim {

namespace {
// Component tags for Scenario::trial_seed.
constexpr std::uint64_t kGraphComponent = 0;
constexpr std::uint64_t kPopulationComponent = 1;
constexpr std::uint64_t kJobComponent = 2;
constexpr std::uint64_t kMechanismComponent = 3;
}  // namespace

TrialInstance make_instance(const Scenario& scenario, std::uint64_t trial) {
  RIT_TRACE_SPAN("sim.make_instance");
  rng::Rng graph_rng(scenario.trial_seed(trial, kGraphComponent));
  rng::Rng pop_rng(scenario.trial_seed(trial, kPopulationComponent));
  rng::Rng job_rng(scenario.trial_seed(trial, kJobComponent));

  graph::Graph g = generate_graph(scenario, graph_rng);
  TreeResult tr = generate_tree(scenario, g);
  return TrialInstance{
      generate_population(scenario, pop_rng),
      generate_job(scenario, job_rng),
      std::move(tr.tree),
      scenario.trial_seed(trial, kMechanismComponent),
  };
}

std::uint64_t mechanism_seed_of(const Scenario& scenario,
                                std::uint64_t trial) {
  return scenario.trial_seed(trial, kMechanismComponent);
}

TrialMetrics run_trial(const Scenario& scenario, const TrialInstance& inst) {
  core::RitWorkspace ws;
  return run_trial(scenario, inst, ws);
}

TrialMetrics run_trial(const Scenario& scenario, const TrialInstance& inst,
                       core::RitWorkspace& ws) {
  RIT_TRACE_SPAN("sim.trial");
  RIT_COUNTER_INC("sim.trials_run");
  TrialMetrics m;
  const auto& asks = inst.population.truthful_asks;
  const auto& costs = inst.population.costs;
  const auto n = static_cast<double>(inst.population.size());

  // One mechanism run, timed twice: runtime_auction_ms stops after the
  // auction phase and runtime_rit_ms after the payment phase. The auction
  // series read auction_payment, which the payment phase leaves untouched,
  // so they isolate the payment phase's effect on the same outcome.
  core::RitResult res;
  {
    rng::Rng rng(inst.mechanism_seed);
    stats::Timer timer;
    core::run_auction_phase_into(inst.job, asks, scenario.mechanism, rng, ws,
                                 res);
    m.runtime_auction_ms = timer.elapsed_ms();
    core::run_payment_phase_into(asks, inst.tree, scenario.mechanism, ws, res);
    m.runtime_rit_ms = timer.elapsed_ms();
  }
  m.success = res.success;
  m.probability_degraded = res.probability_degraded;
  double auction_utility = 0.0;
  double rit_utility = 0.0;
  std::uint64_t allocated = 0;
  for (std::uint32_t j = 0; j < inst.population.size(); ++j) {
    auction_utility += res.auction_utility_of(j, costs[j]);
    rit_utility += res.utility_of(j, costs[j]);
    allocated += res.allocation[j];
  }
  m.avg_utility_auction = n > 0 ? auction_utility / n : 0.0;
  m.avg_utility_rit = n > 0 ? rit_utility / n : 0.0;
  m.total_payment_auction = res.total_auction_payment();
  m.total_payment_rit = res.total_payment();
  m.tasks_allocated = allocated;
  m.solicitation_premium =
      core::solicitation_premium(res.payment, res.auction_payment);
  RIT_COUNTER_ADD("sim.tasks_allocated", m.tasks_allocated);
  if (m.probability_degraded) RIT_COUNTER_INC("sim.trials_degraded");
  return m;
}

TrialMetrics run_trial(const Scenario& scenario, std::uint64_t trial) {
  return run_trial(scenario, make_instance(scenario, trial));
}

AggregateMetrics run_many(
    const Scenario& scenario, std::uint64_t trials,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  AggregateMetrics agg;
  core::RitWorkspace ws;
  // Throttled so a trials=1000 sweep does not spam its reporter: at most
  // one invocation per 100 ms, plus the final one.
  ProgressThrottle throttle;
  for (std::uint64_t t = 0; t < trials; ++t) {
    agg.add(run_trial(scenario, make_instance(scenario, t), ws));
    if (progress && throttle.should_fire(t + 1 == trials)) {
      progress(t + 1, trials);
    }
  }
  return agg;
}

AggregateMetrics run_until_precision(const Scenario& scenario,
                                     double target_ci,
                                     std::uint64_t min_trials,
                                     std::uint64_t max_trials) {
  RIT_CHECK(target_ci > 0.0);
  RIT_CHECK(min_trials >= 2 && min_trials <= max_trials);
  AggregateMetrics agg;
  for (std::uint64_t t = 0; t < max_trials; ++t) {
    agg.add(run_trial(scenario, t));
    if (t + 1 >= min_trials &&
        agg.avg_utility_rit.ci95_half_width() <= target_ci) {
      break;
    }
  }
  return agg;
}

AggregateMetrics run_many_parallel(
    const Scenario& scenario, std::uint64_t trials, unsigned threads,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  const unsigned resolved = rit::resolve_threads(threads, trials);
  if (resolved <= 1) return run_many(scenario, trials, progress);

  // The guarded engine (sim/guarded.h) with a default policy is exactly
  // the old fan-out — same strided partition, same worker-order merges of
  // aggregates and metrics registries — plus containment: an exception in
  // a trial aborts with a clean CheckFailure (failure budget 0) instead of
  // std::terminate from a worker thread.
  return run_many_guarded(scenario, trials, resolved, GuardPolicy{}, nullptr,
                          0, progress)
      .metrics;
}

}  // namespace rit::sim
