// Ablation: user dropout between solicitation and the auction.
//
// Recruited users vanish (uninstall, leave the area) before submitting
// asks; their recruits splice up to the closest surviving ancestor
// (sim/failures.h). This bench sweeps the dropout rate and reports how the
// mechanism degrades: allocation success, average utility among survivors,
// and the solicitation premium (which shrinks as recruiters lose subtrees).
#include <vector>

#include "bench_support.h"
#include "common/parallel.h"
#include "core/rit.h"
#include "sim/failures.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts =
      parse_options(argc, argv, "ablation_dropout", 5, Points::kOwnLoop);

  sim::Scenario s;
  s.num_users = scaled(30000, opts.scale, 300);
  s.num_types = 5;
  s.tasks_per_type = scaled(2000, opts.scale, 20);
  s.k_max = 6;
  apply_options(opts, s);

  std::vector<std::vector<double>> rows;
  for (const double rate : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    struct Worker {
      std::uint64_t successes{0};
      stats::OnlineStats utility;
      stats::OnlineStats premium;
      stats::OnlineStats survivors;
      core::RitWorkspace ws;
    };
    std::vector<Worker> workers(rit::resolve_threads(opts.threads, opts.trials));
    rit::parallel_for_strided(
        opts.trials, static_cast<unsigned>(workers.size()),
        [&](std::uint64_t trial, unsigned w) {
          Worker& wk = workers[w];
          const sim::TrialInstance inst = sim::make_instance(s, trial);
          rng::Rng drop_rng(inst.mechanism_seed ^ 0xd20);
          const sim::DropoutResult dropped = sim::random_dropout(
              inst.tree, inst.population.truthful_asks, rate, drop_rng);
          wk.survivors.add(static_cast<double>(dropped.asks.size()));
          rng::Rng rng(inst.mechanism_seed);
          core::RitResult r;
          core::run_rit_into(inst.job, dropped.asks, dropped.tree, s.mechanism,
                             rng, wk.ws, r);
          if (!r.success) return;
          ++wk.successes;
          double total = 0.0;
          for (std::uint32_t i = 0; i < dropped.asks.size(); ++i) {
            total += r.utility_of(
                i, inst.population.costs[dropped.original_of[i]]);
          }
          wk.utility.add(dropped.asks.empty()
                             ? 0.0
                             : total / static_cast<double>(
                                           dropped.asks.size()));
          wk.premium.add(r.total_payment() - r.total_auction_payment());
        });
    std::uint64_t successes = 0;
    stats::OnlineStats utility;
    stats::OnlineStats premium;
    stats::OnlineStats survivors;
    for (const Worker& wk : workers) {
      successes += wk.successes;
      utility.merge(wk.utility);
      premium.merge(wk.premium);
      survivors.merge(wk.survivors);
    }
    rows.push_back({rate, survivors.mean(),
                    static_cast<double>(successes) /
                        static_cast<double>(opts.trials),
                    utility.count() ? utility.mean() : 0.0,
                    premium.count() ? premium.mean() : 0.0});
  }
  emit("Ablation — dropout between solicitation and auction", opts,
       {"dropout_rate", "survivors", "success_rate", "avg_utility",
        "premium"},
       rows);
  finish(opts);
  return 0;
}
