#include "sim/runner.h"

#include "core/payment.h"
#include "core/rit.h"
#include "obs/obs.h"
#include "stats/timer.h"
#include "tree/builders.h"

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

  // Barabási–Albert gets its forest during the draws, without the graph;
  // the tree is the same one generate_tree would build from it.
  tree::IncentiveTree tree =
      scenario.graph == GraphKind::kBarabasiAlbert
          ? tree::barabasi_albert_forest(scenario.num_users,
                                         scenario.ba_edges_per_node,
                                         scenario.initial_joiners, graph_rng)
          : generate_tree(scenario, generate_graph(scenario, graph_rng));
  return TrialInstance{
      generate_population(scenario, pop_rng),
      generate_job(scenario, job_rng),
      std::move(tree),
      scenario.trial_seed(trial, kMechanismComponent),
  };
}

std::uint64_t mechanism_seed_of(const Scenario& scenario,
                                std::uint64_t trial) {
  return scenario.trial_seed(trial, kMechanismComponent);
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

}  // namespace rit::sim
