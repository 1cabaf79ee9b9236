// Ablation: round-budget policy (DESIGN.md ambiguity #3).
//
// Side-by-side comparison of the literal Alg. 3 budget (kTheoretical) and
// run-to-completion across an oversupply sweep, in two regimes:
//  * the paper's regime (m = 10 types, K_max = 20): the literal budget
//    clamps to one round per type and essentially never completes the job —
//    the headline reason the simulations default to run-to-completion;
//  * a consensus-friendly regime (2 types, K_max = 4): the literal budget
//    gets several rounds and the two policies coincide.
#include <vector>

#include "bench_support.h"
#include "sim/runner.h"

namespace {

using namespace rit;
using namespace rit::bench;

std::vector<std::vector<double>> run_regime(const BenchOptions& opts,
                                            bool paper_regime) {
  std::vector<std::vector<double>> rows;
  for (const std::uint32_t users_paper : {20000u, 30000u, 45000u, 60000u}) {
    sim::Scenario s;
    s.num_users = scaled(users_paper, opts.scale, 200);
    if (paper_regime) {
      s.num_types = 10;
      s.tasks_per_type = scaled(2000, opts.scale, 10);
      s.k_max = 20;
    } else {
      s.num_types = 2;
      s.tasks_per_type = scaled(10000, opts.scale, 50);
      s.k_max = 4;
    }
    apply_options(opts, s);

    sim::Scenario theo = s;
    theo.mechanism.round_budget_policy = core::RoundBudgetPolicy::kTheoretical;
    sim::Scenario comp = s;
    comp.mechanism.round_budget_policy =
        core::RoundBudgetPolicy::kRunToCompletion;

    const sim::AggregateMetrics at =
        run_point(opts, theo);
    const sim::AggregateMetrics ac =
        run_point(opts, comp);
    rows.push_back({static_cast<double>(users_paper), at.success_rate(),
                    ac.success_rate(), at.avg_utility_rit.mean(),
                    ac.avg_utility_rit.mean(), at.total_payment_rit.mean(),
                    ac.total_payment_rit.mean(), at.degraded_rate(),
                    ac.degraded_rate()});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv, "ablation_rounds", 3);
  const std::vector<std::string> header{
      "users(paper)", "succ_theo", "succ_comp",     "util_theo",
      "util_comp",    "pay_theo",  "pay_comp",      "degr_theo",
      "degr_comp"};
  emit("Ablation — round budget, paper regime (m=10 types, K_max=20)", opts,
       header, run_regime(opts, /*paper_regime=*/true));
  emit("Ablation — round budget, friendly regime (2 types, K_max=4)", opts,
       header, run_regime(opts, /*paper_regime=*/false), 4,
       "ablation_rounds_friendly");
  finish(opts);
  return 0;
}
