// Fig. 9: total utility of a sybil attacker vs the number of identities.
//
// Paper setup: n = 10000 users, m_i ~ U(100, 500] per type, H = 0.8. A user
// P_29 with true cost 5.5 and capability K = 17 (chosen so its truthful
// auction payment is non-zero) launches random sybil attacks with
// delta = 2..17 identities, all identities asking the same value. Three ask
// values are monitored: the true cost 5.5, and the deviations 6.5 and 6.25
// (the paper's text prints both "6.25" and "6.225"; we use 6.25).
//
// Expected shape: utility decreases (never increases) with the number of
// identities, and the truthful ask value 5.5 dominates the other two —
// together demonstrating sybil-proofness and truthfulness.
//
// Supply/demand note: at the paper's exact ratio (~20x oversupply per type)
// CRA clearing prices sit far below 5.5, the designated victim is priced
// out of the auction no matter what it asks, and the three ask-value series
// coincide (pure tree rewards; still a valid sybil-proofness read-out). By
// default this bench therefore scales the demand less aggressively than
// the population (divisor scale/4) so clearing prices straddle the 5.5-6.5
// band and the truthfulness comparison is visible. Pass --paper-ratio to
// keep the verbatim ratio instead. See EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_support.h"
#include "attack/sybil_experiment.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts =
      parse_options(argc, argv, "fig9_sybil_utility", 30, Points::kOwnLoop);

  sim::Scenario s;
  s.num_users = scaled(10000, opts.scale, 200);
  s.num_types = 10;
  const double demand_scale =
      opts.paper_ratio ? opts.scale : std::max(1.0, opts.scale / 4.0);
  s.demand_lo = scaled(100, demand_scale, 5);
  s.demand_hi = scaled(500, demand_scale, 20);
  s.k_max = 20;
  s.initial_joiners = 10;
  apply_options(opts, s);

  attack::SybilExperimentConfig config;
  config.trials = opts.trials;
  config.threads = opts.threads;

  std::vector<std::vector<double>> rows;
  for (const attack::SybilSeriesPoint& point : attack::run_sybil_experiment(s, config)) {
    std::fprintf(stderr, "  identities=%u done\n", point.identities);
    std::vector<double> row{static_cast<double>(point.identities)};
    for (const auto& series : point.utility) {
      row.push_back(series.mean());
      row.push_back(series.ci95_half_width());
    }
    row.push_back(point.honest.mean());
    row.push_back(point.honest.ci95_half_width());
    rows.push_back(std::move(row));
  }

  const std::vector<std::string> header{
      "identities", "ask=5.5(=cost)", "ci95",  "ask=6.5", "ci95",
      "ask=6.25",   "ci95",           "honest_reference", "ci95"};
  emit("Fig. 9 — sybil attacker utility vs number of identities", opts,
       header, rows);
  emit_svg("Fig. 9: sybil attacker utility vs identities", opts, header,
           rows, {1, 3, 5, 7});
  finish(opts);
  return 0;
}
