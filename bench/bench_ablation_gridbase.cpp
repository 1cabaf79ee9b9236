// Ablation: the consensus grid base c (the paper fixes c = 2).
//
// The grid {c^(z+y)} is the collusion-resistance dial: a coalition moving
// the below-threshold count by k flips the consensus value on a y-measure
// of log_c(z/(z-k)) — smaller for larger c — but the winner count rounds
// down by up to a factor c, so large bases throw away supply and need more
// rounds (higher payments, slower fills). This bench sweeps c and reports
// the theoretical per-round truthfulness bound alongside the realized
// rounds, payments, and utilities.
#include <cmath>
#include <vector>

#include "bench_support.h"
#include "common/parallel.h"
#include "core/rit.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts = parse_options(argc, argv, "ablation_gridbase", 5);

  std::vector<std::vector<double>> rows;
  for (const double base : {1.5, 2.0, 3.0, 4.0, 8.0}) {
    sim::Scenario s;
    s.num_users = scaled(30000, opts.scale, 300);
    s.num_types = 5;
    s.tasks_per_type = scaled(2000, opts.scale, 20);
    s.k_max = 6;
    apply_options(opts, s);
    s.mechanism.consensus_log_base = base;

    struct Worker {
      stats::OnlineStats rounds;
      stats::OnlineStats bound;
      core::RitWorkspace ws;
    };
    std::vector<Worker> workers(rit::resolve_threads(opts.threads, opts.trials));
    rit::parallel_for_strided(
        opts.trials, static_cast<unsigned>(workers.size()),
        [&](std::uint64_t trial, unsigned w) {
          Worker& wk = workers[w];
          const sim::TrialInstance inst = sim::make_instance(s, trial);
          rng::Rng rng(inst.mechanism_seed);
          core::RitResult r;
          core::run_rit_into(inst.job, inst.population.truthful_asks,
                             inst.tree, s.mechanism, rng, wk.ws, r);
          double total_rounds = 0.0;
          for (const auto& info : r.type_info) {
            total_rounds += info.rounds_used;
            wk.bound.add(info.budget.per_round_bound);
          }
          wk.rounds.add(total_rounds / static_cast<double>(r.type_info.size()));
        });
    stats::OnlineStats rounds;
    stats::OnlineStats bound;
    for (const Worker& wk : workers) {
      rounds.merge(wk.rounds);
      bound.merge(wk.bound);
    }
    const sim::AggregateMetrics agg =
        run_point(opts, s);
    rows.push_back({base, bound.mean(), rounds.mean(), agg.success_rate(),
                    agg.avg_utility_rit.mean(), agg.total_payment_rit.mean(),
                    agg.degraded_rate()});
  }
  emit("Ablation — consensus grid base c (paper: 2)", opts,
       {"grid_base", "per_round_bound", "rounds/type", "success_rate",
        "avg_utility", "total_payment", "degraded_rate"},
       rows);
  finish(opts);
  return 0;
}
