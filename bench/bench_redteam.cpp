// Red-team bench: exhaustive attack search against RIT and its ablations.
//
// For each mechanism configuration, run attack::search_best_attack over a
// grid of sybil/misreport strategies and report the best expected gain the
// red team found (positive gain beyond the slack column = exploitable).
// This is the measurement version of Theorem 2, and it shows the two
// deliberately weakened arms — the deterministic price mode and the naive
// combination's own-payment amplification — lighting up red where RIT
// stays at zero.
#include <vector>

#include "attack/strategy_search.h"
#include "bench_support.h"
#include "sim/runner.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  // The search compares paired seeds, so it needs at least two trials.
  const BenchOptions opts =
      parse_options(argc, argv, "redteam", 40, Points::kOwnLoop,
                    /*min_trials=*/2);

  sim::Scenario s;
  s.num_users = scaled(5000, opts.scale, 200);
  s.num_types = 2;
  s.tasks_per_type = scaled(1500, opts.scale, 30);
  s.k_max = 6;
  apply_options(opts, s);

  const sim::TrialInstance inst = sim::make_instance(s, 0);
  // The victim: a competitive high-capacity user.
  const std::uint32_t victim = 7 % inst.population.size();
  auto asks = inst.population.truthful_asks;
  asks[victim] = core::Ask{asks[victim].type, 6, 2.0};
  const double cost = 2.0;

  attack::SearchSpace space;
  space.trials = opts.trials;
  space.threads = opts.threads;

  std::vector<std::vector<double>> rows;
  int config_index = 0;
  for (const core::PriceMode mode :
       {core::PriceMode::kConsensus, core::PriceMode::kOrderStatistic}) {
    core::RitConfig cfg = s.mechanism;
    cfg.price_mode = mode;
    const attack::SearchResult result = attack::search_best_attack(
        inst.job, asks, inst.tree, victim, cost, cfg, space);
    rows.push_back({static_cast<double>(config_index),
                    result.honest_mean, result.best().mean_utility,
                    result.best_gain(), result.gain_slack(),
                    static_cast<double>(result.best().candidate.identities),
                    result.best().candidate.ask_value});
    ++config_index;
  }
  emit("Red team — best attack found (0=RIT/consensus 1=order-statistic)",
       opts,
       {"config", "honest", "best_attack", "gain", "slack",
        "best_identities", "best_ask"},
       rows);
  finish(opts);
  return 0;
}
