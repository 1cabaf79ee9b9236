// Ablation: how much solicitation is enough? (Remark 6.1)
//
// The paper recommends growing the incentive tree until the joined users
// can complete at least 2*m_i tasks per type. This bench sweeps the supply
// multiple from 1.0x to 4.0x, grows the tree with sim::grow_until_supply,
// and measures: recruited-user count, allocation success rate, average
// clearing price level (total payment / tasks), and average utility —
// quantifying the recommendation and the marginal value of over-recruiting.
#include <vector>

#include "bench_support.h"
#include "common/parallel.h"
#include "core/rit.h"
#include "sim/growth.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts =
      parse_options(argc, argv, "ablation_supply", 5, Points::kOwnLoop);

  sim::Scenario s;
  s.num_users = scaled(60000, opts.scale, 500);  // recruitment pool
  s.num_types = 5;
  s.tasks_per_type = scaled(3000, opts.scale, 20);
  s.k_max = 8;
  apply_options(opts, s);

  std::vector<std::vector<double>> rows;
  for (const double multiple : {1.0, 1.5, 2.0, 3.0, 4.0}) {
    struct Worker {
      stats::OnlineStats joined;
      stats::OnlineStats utility;
      stats::OnlineStats price_level;
      std::uint64_t successes{0};
      core::RitWorkspace ws;
    };
    std::vector<Worker> workers(rit::resolve_threads(opts.threads, opts.trials));
    rit::parallel_for_strided(
        opts.trials, static_cast<unsigned>(workers.size()),
        [&](std::uint64_t trial, unsigned w) {
          Worker& wk = workers[w];
          rng::Rng graph_rng(s.trial_seed(trial, 0));
          rng::Rng pop_rng(s.trial_seed(trial, 1));
          rng::Rng job_rng(s.trial_seed(trial, 2));
          const graph::Graph g = sim::generate_graph(s, graph_rng);
          const sim::Population pop = sim::generate_population(s, pop_rng);
          const core::Job job = sim::generate_job(s, job_rng);

          sim::GrowthOptions gopts;
          gopts.supply_multiple = multiple;
          gopts.seeds = {0, 1, 2, 3};
          const sim::GrowthResult grown =
              sim::grow_until_supply(g, pop, job, gopts);
          wk.joined.add(static_cast<double>(grown.joined.size()));

          std::vector<core::Ask> asks;
          std::vector<double> costs;
          for (std::uint32_t u : grown.joined) {
            asks.push_back(pop.truthful_asks[u]);
            costs.push_back(pop.costs[u]);
          }
          rng::Rng rng(s.trial_seed(trial, 3));
          core::RitResult r;
          core::run_rit_into(job, asks, grown.tree, s.mechanism, rng, wk.ws,
                             r);
          if (r.success) {
            ++wk.successes;
            double total_utility = 0.0;
            for (std::size_t j = 0; j < asks.size(); ++j) {
              total_utility +=
                  r.utility_of(static_cast<std::uint32_t>(j), costs[j]);
            }
            wk.utility.add(total_utility / static_cast<double>(asks.size()));
            wk.price_level.add(r.total_payment() /
                               static_cast<double>(job.total_tasks()));
          }
        });
    stats::OnlineStats joined;
    stats::OnlineStats utility;
    stats::OnlineStats price_level;
    std::uint64_t successes = 0;
    for (const Worker& wk : workers) {
      joined.merge(wk.joined);
      utility.merge(wk.utility);
      price_level.merge(wk.price_level);
      successes += wk.successes;
    }
    rows.push_back({multiple, joined.mean(),
                    static_cast<double>(successes) /
                        static_cast<double>(opts.trials),
                    utility.count() > 0 ? utility.mean() : 0.0,
                    price_level.count() > 0 ? price_level.mean() : 0.0});
  }
  emit("Ablation — solicitation supply multiple (Remark 6.1 says 2.0)", opts,
       {"supply_multiple", "users_recruited", "success_rate", "avg_utility",
        "payment_per_task"},
       rows);
  finish(opts);
  return 0;
}
