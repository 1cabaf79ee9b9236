// Ablation: consensus rounding vs a deterministic order-statistic price —
// the price of robustness.
//
// The paper's central design argument (Sec. 4-A, Lemma 6.2): a
// deterministic per-round price lets a coalition (e.g. one user's sybil
// identities) steer the clearing price, while CRA's sampled-threshold +
// consensus-count construction makes that influence vanish with high
// probability. The *manipulability* of the deterministic mode is pinned by
// deterministic unit tests (cra_test.cpp: OrderStatistic* / collusion
// tests); what this bench quantifies is what the robustness costs the
// platform in thick markets: both modes are run on identical instances
// (honest and under a split-role sybil manipulation) and the total payment
// gap is the premium the randomized price pays for collusion resistance.
#include <vector>

#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "bench_support.h"
#include "common/parallel.h"
#include "core/rit.h"
#include "sim/runner.h"
#include "stats/online_stats.h"

namespace {

using namespace rit;
using namespace rit::bench;

struct ModeResult {
  double honest_mean{0.0};
  double attack_mean{0.0};
  double gain{0.0};
  double total_payment{0.0};
};

ModeResult run_mode(const sim::Scenario& base, core::PriceMode mode,
                    std::uint64_t trials, unsigned threads) {
  sim::Scenario s = base;
  s.mechanism.price_mode = mode;
  struct Worker {
    stats::OnlineStats honest;
    stats::OnlineStats attack_stats;
    stats::OnlineStats payment;
    core::RitWorkspace ws;
  };
  std::vector<Worker> workers(rit::resolve_threads(threads, trials));
  rit::parallel_for_strided(
      trials, static_cast<unsigned>(workers.size()),
      [&](std::uint64_t trial, unsigned w) {
        Worker& wk = workers[w];
        sim::TrialInstance inst = sim::make_instance(s, trial);
        // The attacker: a cheap high-capacity user.
        const std::uint32_t attacker = 7 % inst.population.size();
        inst.population.truthful_asks[attacker] =
            core::Ask{inst.population.truthful_asks[attacker].type, 6, 1.0};
        inst.population.costs[attacker] = 1.0;

        {
          rng::Rng rng(inst.mechanism_seed);
          core::RitResult r;
          core::run_rit_into(inst.job, inst.population.truthful_asks,
                             inst.tree, s.mechanism, rng, wk.ws, r);
          wk.honest.add(r.utility_of(attacker, 1.0));
          wk.payment.add(r.total_payment());
        }
        {
          attack::SybilPlan plan;
          plan.victim = attacker;
          plan.identities = {{3, 1.0, attack::kOriginalParent}, {3, 9.0, 1}};
          const auto kids =
              inst.tree.children(tree::node_of_participant(attacker));
          plan.child_assignment.assign(kids.size(), 2);
          const auto attacked = attack::apply_sybil(
              inst.tree, inst.population.truthful_asks, plan);
          rng::Rng rng(inst.mechanism_seed);
          core::RitResult r;
          core::run_rit_into(inst.job, attacked.asks, attacked.tree,
                             s.mechanism, rng, wk.ws, r);
          wk.attack_stats.add(attacked.attacker_utility(r, 1.0));
        }
      });
  stats::OnlineStats honest;
  stats::OnlineStats attack_stats;
  stats::OnlineStats payment;
  for (const Worker& wk : workers) {
    honest.merge(wk.honest);
    attack_stats.merge(wk.attack_stats);
    payment.merge(wk.payment);
  }
  return ModeResult{honest.mean(), attack_stats.mean(),
                    attack_stats.mean() - honest.mean(), payment.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts =
      parse_options(argc, argv, "ablation_consensus", 40, Points::kOwnLoop);
  sim::Scenario s;
  s.num_users = scaled(10000, opts.scale, 200);
  s.num_types = 4;
  s.tasks_per_type = scaled(4000, opts.scale, 20);
  s.k_max = 6;
  apply_options(opts, s);

  const ModeResult consensus =
      run_mode(s, core::PriceMode::kConsensus, opts.trials, opts.threads);
  const ModeResult order =
      run_mode(s, core::PriceMode::kOrderStatistic, opts.trials, opts.threads);

  emit("Ablation — consensus rounding vs deterministic order-statistic price",
       opts,
       {"mode(0=consensus,1=orderstat)", "honest_utility", "attack_utility",
        "attack_gain", "total_payment"},
       {{0.0, consensus.honest_mean, consensus.attack_mean, consensus.gain,
         consensus.total_payment},
        {1.0, order.honest_mean, order.attack_mean, order.gain,
         order.total_payment}});
  finish(opts);
  return 0;
}
