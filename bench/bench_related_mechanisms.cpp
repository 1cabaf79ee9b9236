// Cross-mechanism comparison on identical instances: RIT vs its relatives.
//
//   RIT            — the paper's mechanism (consensus auction + tree).
//   auction-only   — RIT's auction phase with no solicitation rewards.
//   k-th price     — the deterministic truthful auction of Sec. 4-A, no
//                    tree (the classic no-solicitation strawman).
//   naive combo    — k-th price + contribution tree (Sec. 4's broken
//                    composition; own_weight 2 doubles winners' payments).
//
// For each, the table reports the platform's expenditure, the average user
// utility, and whether the configuration is robust (truthful+sybil-proof):
// the factor between the k-th price column and the RIT column is the total
// price of solicitation + robustness — the "who wins, by what factor" view
// the paper's evaluation implies but never prints.
#include <vector>

#include "baselines/kth_price_auction.h"
#include "core/efficiency.h"
#include "baselines/naive_combo.h"
#include "bench_support.h"
#include "common/parallel.h"
#include "core/rit.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts =
      parse_options(argc, argv, "related_mechanisms", 10, Points::kOwnLoop);

  sim::Scenario s;
  s.num_users = scaled(30000, opts.scale, 300);
  s.num_types = 5;
  s.tasks_per_type = scaled(2000, opts.scale, 20);
  s.k_max = 8;
  apply_options(opts, s);

  struct Worker {
    stats::OnlineStats pay_rit;
    stats::OnlineStats pay_auction;
    stats::OnlineStats pay_kth;
    stats::OnlineStats pay_naive;
    stats::OnlineStats util_rit;
    stats::OnlineStats util_auction;
    stats::OnlineStats util_kth;
    stats::OnlineStats util_naive;
    stats::OnlineStats eff_rit;
    stats::OnlineStats eff_kth;
    core::RitWorkspace ws;
  };
  std::vector<Worker> workers(rit::resolve_threads(opts.threads, opts.trials));
  rit::parallel_for_strided(
      opts.trials, static_cast<unsigned>(workers.size()),
      [&](std::uint64_t trial, unsigned w) {
        Worker& wk = workers[w];
        const sim::TrialInstance inst = sim::make_instance(s, trial);
        const auto& asks = inst.population.truthful_asks;
        const auto& costs = inst.population.costs;
        const double n = static_cast<double>(asks.size());

        {
          rng::Rng rng(inst.mechanism_seed);
          core::RitResult r;
          core::run_rit_into(inst.job, asks, inst.tree, s.mechanism, rng,
                             wk.ws, r);
          if (r.success) {
            wk.pay_rit.add(r.total_payment());
            wk.pay_auction.add(r.total_auction_payment());
            double u_full = 0.0;
            double u_auct = 0.0;
            for (std::uint32_t j = 0; j < asks.size(); ++j) {
              u_full += r.utility_of(j, costs[j]);
              u_auct += r.auction_utility_of(j, costs[j]);
            }
            wk.util_rit.add(u_full / n);
            wk.util_auction.add(u_auct / n);
            wk.eff_rit.add(core::cost_efficiency(inst.job, asks, r.allocation));
          }
        }
        {
          const auto kth = baselines::multi_unit_kth_price(inst.job, asks);
          if (kth.success) {
            double pay = 0.0;
            double u = 0.0;
            for (std::uint32_t j = 0; j < asks.size(); ++j) {
              pay += kth.auction_payment[j];
              u += core::utility(kth.auction_payment[j], kth.allocation[j],
                                 costs[j]);
            }
            wk.pay_kth.add(pay);
            wk.util_kth.add(u / n);
            wk.eff_kth.add(
                core::cost_efficiency(inst.job, asks, kth.allocation));
          }
          const auto naive =
              baselines::run_naive_combo(inst.job, asks, inst.tree);
          if (naive.success) {
            double pay = 0.0;
            double u = 0.0;
            for (std::uint32_t j = 0; j < asks.size(); ++j) {
              pay += naive.payment[j];
              u += naive.utility_of(j, costs[j]);
            }
            wk.pay_naive.add(pay);
            wk.util_naive.add(u / n);
          }
        }
      });
  stats::OnlineStats pay_rit;
  stats::OnlineStats pay_auction;
  stats::OnlineStats pay_kth;
  stats::OnlineStats pay_naive;
  stats::OnlineStats util_rit;
  stats::OnlineStats util_auction;
  stats::OnlineStats util_kth;
  stats::OnlineStats util_naive;
  stats::OnlineStats eff_rit;
  stats::OnlineStats eff_kth;
  for (const Worker& wk : workers) {
    pay_rit.merge(wk.pay_rit);
    pay_auction.merge(wk.pay_auction);
    pay_kth.merge(wk.pay_kth);
    pay_naive.merge(wk.pay_naive);
    util_rit.merge(wk.util_rit);
    util_auction.merge(wk.util_auction);
    util_kth.merge(wk.util_kth);
    util_naive.merge(wk.util_naive);
    eff_rit.merge(wk.eff_rit);
    eff_kth.merge(wk.eff_kth);
  }

  emit("Related mechanisms on identical instances "
       "(0=RIT 1=auction-only 2=kth-price 3=naive-combo)",
       opts,
       {"mechanism", "total_payment", "avg_utility", "cost_efficiency",
        "solicits?", "robust?"},
       {{0.0, pay_rit.mean(), util_rit.mean(), eff_rit.mean(), 1.0, 1.0},
        {1.0, pay_auction.mean(), util_auction.mean(), eff_rit.mean(), 0.0,
         1.0},
        {2.0, pay_kth.mean(), util_kth.mean(), eff_kth.mean(), 0.0, 0.0},
        {3.0, pay_naive.mean(), util_naive.mean(), eff_kth.mean(), 1.0,
         0.0}});
  finish(opts);
  return 0;
}
