// Ablation: the robustness target H.
//
// Higher H tightens the per-type truthfulness target eta = H^(1/m), which
// shrinks the theoretical round budget and therefore the success rate under
// the literal Alg. 3 budget. Under run-to-completion the allocation always
// finishes, but the achieved probability bound (reported per run) drops as
// more rounds are spent. This bench reports both policies side by side.
#include <vector>

#include "bench_support.h"
#include "common/parallel.h"
#include "core/rit.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

int main(int argc, char** argv) {
  using namespace rit;
  using namespace rit::bench;
  const BenchOptions opts = parse_options(argc, argv, "ablation_h_sweep", 3);

  std::vector<std::vector<double>> rows;
  for (const double h : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
    // A consensus-friendly regime (single type, K_max << m_i) so the
    // theoretical budget actually varies with H instead of pinning at the
    // 1-round clamp; the paper's own regime is studied by ablation_rounds.
    sim::Scenario s;
    s.num_users = scaled(30000, opts.scale, 200);
    s.num_types = 1;
    s.tasks_per_type = scaled(20000, opts.scale, 100);
    s.k_max = 4;
    apply_options(opts, s);
    s.mechanism.h = h;

    // Theoretical-budget success rate.
    sim::Scenario theo = s;
    theo.mechanism.round_budget_policy = core::RoundBudgetPolicy::kTheoretical;
    const sim::AggregateMetrics agg_theo =
        run_point(opts, theo);

    // Run-to-completion achieved bound: measure on fresh instances.
    sim::Scenario comp = s;
    comp.mechanism.round_budget_policy =
        core::RoundBudgetPolicy::kRunToCompletion;
    struct Worker {
      stats::OnlineStats achieved;
      stats::OnlineStats budget_rounds;
      core::RitWorkspace ws;
    };
    std::vector<Worker> workers(rit::resolve_threads(opts.threads, opts.trials));
    rit::parallel_for_strided(
        opts.trials, static_cast<unsigned>(workers.size()),
        [&](std::uint64_t t, unsigned w) {
          Worker& wk = workers[w];
          const sim::TrialInstance inst = sim::make_instance(comp, t);
          rng::Rng rng(inst.mechanism_seed);
          core::RitResult r;
          core::run_rit_into(inst.job, inst.population.truthful_asks,
                             inst.tree, comp.mechanism, rng, wk.ws, r);
          wk.achieved.add(r.achieved_probability);
          double rounds = 0.0;
          for (const auto& info : r.type_info) {
            rounds += info.budget.max_rounds;
          }
          wk.budget_rounds.add(rounds /
                               static_cast<double>(r.type_info.size()));
        });
    stats::OnlineStats achieved;
    stats::OnlineStats budget_rounds;
    for (const Worker& wk : workers) {
      achieved.merge(wk.achieved);
      budget_rounds.merge(wk.budget_rounds);
    }

    rows.push_back({h, budget_rounds.mean(), agg_theo.success_rate(),
                    achieved.mean(), agg_theo.degraded_rate()});
  }
  emit("Ablation — H sweep", opts,
       {"H", "theoretical_rounds/type", "theoretical_success_rate",
        "completion_achieved_bound", "theoretical_degraded_rate"},
       rows);
  finish(opts);
  return 0;
}
