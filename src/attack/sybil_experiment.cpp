#include "attack/sybil_experiment.h"

#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "common/check.h"
#include "common/parallel.h"
#include "core/rit.h"

namespace rit::attack {

namespace {
std::uint32_t pick_and_upgrade_victim(const sim::Scenario& scenario,
                                      sim::TrialInstance& inst,
                                      const SybilExperimentConfig& config) {
  rng::Rng probe_rng(inst.mechanism_seed ^ 0x9999);
  const core::RitResult probe =
      core::run_rit(inst.job, inst.population.truthful_asks, inst.tree,
                    scenario.mechanism, probe_rng);
  std::uint32_t victim = 29 % inst.population.size();
  for (std::uint32_t j = 0; j < inst.population.size(); ++j) {
    const std::uint32_t candidate = (29 + j) % inst.population.size();
    if (probe.auction_payment[candidate] > 0.0) {
      victim = candidate;
      break;
    }
  }
  inst.population.truthful_asks[victim].quantity = config.victim_capability;
  inst.population.truthful_asks[victim].value = config.victim_cost;
  inst.population.costs[victim] = config.victim_cost;
  return victim;
}
}  // namespace

std::vector<SybilSeriesPoint> run_sybil_experiment(
    const sim::Scenario& scenario, const SybilExperimentConfig& config) {
  RIT_CHECK(config.delta_lo >= 2);
  RIT_CHECK(config.delta_hi >= config.delta_lo);
  RIT_CHECK(config.delta_hi <= config.victim_capability);
  RIT_CHECK(!config.ask_values.empty());
  RIT_CHECK(config.victim_cost > 0.0);

  std::vector<SybilSeriesPoint> out;
  for (std::uint32_t delta = config.delta_lo; delta <= config.delta_hi;
       ++delta) {
    SybilSeriesPoint point;
    point.identities = delta;
    point.utility.resize(config.ask_values.size());

    struct Worker {
      std::vector<stats::OnlineStats> utility;
      stats::OnlineStats honest;
      core::RitWorkspace ws;
    };
    std::vector<Worker> workers(
        rit::resolve_threads(config.threads, config.trials));
    for (Worker& wk : workers) wk.utility.resize(config.ask_values.size());
    rit::parallel_for_strided(
        config.trials, static_cast<unsigned>(workers.size()),
        [&](std::uint64_t trial, unsigned w) {
          Worker& wk = workers[w];
          sim::TrialInstance inst = sim::make_instance(scenario, trial);
          const std::uint32_t victim =
              pick_and_upgrade_victim(scenario, inst, config);

          // One random topology per (trial, delta), shared across ask
          // values so the series are directly comparable. The ask value is
          // patched into the plan afterwards.
          rng::Rng plan_rng(inst.mechanism_seed ^ (delta * 2654435761ULL));
          SybilPlan plan = random_plan(
              inst.tree, inst.population.truthful_asks, victim, delta,
              config.ask_values.front(), plan_rng);

          for (std::size_t a = 0; a < config.ask_values.size(); ++a) {
            for (auto& identity : plan.identities) {
              identity.value = config.ask_values[a];
            }
            const AttackedInstance attacked = apply_sybil(
                inst.tree, inst.population.truthful_asks, plan);
            rng::Rng rng(inst.mechanism_seed);
            core::RitResult r;
            core::run_rit_into(inst.job, attacked.asks, attacked.tree,
                               scenario.mechanism, rng, wk.ws, r);
            wk.utility[a].add(
                attacked.attacker_utility(r, config.victim_cost));
          }

          rng::Rng rng(inst.mechanism_seed);
          core::RitResult honest_run;
          core::run_rit_into(inst.job, inst.population.truthful_asks,
                             inst.tree, scenario.mechanism, rng, wk.ws,
                             honest_run);
          wk.honest.add(honest_run.utility_of(victim, config.victim_cost));
        });
    for (const Worker& wk : workers) {
      for (std::size_t a = 0; a < config.ask_values.size(); ++a) {
        point.utility[a].merge(wk.utility[a]);
      }
      point.honest.merge(wk.honest);
    }
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace rit::attack
