// Sybil-proofness tests (Lemma 6.4 / Theorem 2).
//
// Two layers:
//  * deterministic: with auction payments held fixed, rewiring the tree by
//    any same-ask sybil plan never increases the attacker's total payment —
//    this isolates the payment-determination phase, where Lemma 6.4's
//    structural argument is exact per instance;
//  * statistical: over many mechanism seeds, the attacker's expected total
//    utility from full RIT runs does not exceed the truthful expectation
//    (within confidence slack), for chain, star, and random plans.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "attack/sybil_apply.h"
#include "attack/sybil_plan.h"
#include "core/payment.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "stats/online_stats.h"
#include "tree/builders.h"

namespace rit {
namespace {

using attack::AttackedInstance;
using attack::SybilPlan;
using core::Ask;
using core::Job;

struct Instance {
  Job job;
  std::vector<Ask> asks;
  tree::IncentiveTree tree;
  std::uint32_t victim;
};

// A healthy instance (m_i comfortably above 2*K_max) with a designated
// victim that has capability >= 6 and a subtree below it.
Instance make_instance(std::uint64_t seed) {
  rng::Rng rng(seed);
  const std::uint32_t n = 400;
  const std::uint32_t num_types = 3;
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < n; ++j) {
    asks.push_back(Ask{
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))},
        static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
        rng.uniform_real_left_open(0.0, 10.0)});
  }
  auto t = tree::random_recursive_tree(n, 0.1, rng);
  // Victim: the participant with the largest subtree (most to lose/gain
  // through the tree), upgraded to capability 6 and a mid-range cost.
  std::uint32_t victim = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (t.subtree_size(tree::node_of_participant(i)) >
        t.subtree_size(tree::node_of_participant(victim))) {
      victim = i;
    }
  }
  asks[victim].quantity = 6;
  asks[victim].value = 4.0;
  return Instance{Job::uniform(num_types, 40), std::move(asks), std::move(t),
                  victim};
}

// ---------- deterministic payment-phase layer ----------

// Splits the victim's (fixed) auction payment across identities
// proportionally to their claimed quantities and checks the attacker's
// total tree payment never rises.
void check_payment_phase_sybil(const Instance& inst, const SybilPlan& plan,
                               const char* label) {
  const auto n = static_cast<std::uint32_t>(inst.asks.size());
  rng::Rng pay_rng(0x5eed ^ plan.delta());
  std::vector<double> pa(n);
  std::vector<TaskType> types(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    pa[j] = pay_rng.uniform01() * 8.0;
    types[j] = inst.asks[j].type;
  }
  core::PaymentWorkspace ws;
  std::vector<double> before;
  core::tree_payments_into(inst.tree, types, pa, 0.5, 1, ws, before);
  const double attacker_before = before[plan.victim];

  const AttackedInstance attacked = attack::apply_sybil(inst.tree, inst.asks, plan);
  const auto n2 = static_cast<std::uint32_t>(attacked.asks.size());
  std::vector<double> pa2(n2, 0.0);
  std::vector<TaskType> types2(n2);
  for (std::uint32_t j = 0; j < n2; ++j) types2[j] = attacked.asks[j].type;
  for (std::uint32_t j = 0; j < n; ++j) {
    if (j != plan.victim) pa2[j] = pa[j];
  }
  // Same total auction payment, split proportionally to quantity (the
  // auction pays per unit, so a same-ask split keeps the per-unit price).
  const double per_unit =
      pa[plan.victim] / static_cast<double>(inst.asks[plan.victim].quantity);
  for (std::size_t l = 0; l < attacked.identity_participants.size(); ++l) {
    pa2[attacked.identity_participants[l]] =
        per_unit * plan.identities[l].quantity;
  }
  std::vector<double> after;
  core::tree_payments_into(attacked.tree, types2, pa2, 0.5, 1, ws, after);
  double attacker_after = 0.0;
  for (std::uint32_t p : attacked.identity_participants) {
    attacker_after += after[p];
  }
  EXPECT_LE(attacker_after, attacker_before + 1e-9)
      << label << " delta=" << plan.delta();

  // Lemma 6.4's flip side: honest users unrelated to the victim (neither
  // ancestors, who get diluted Alice-style, nor members of the victim's
  // subtree, whose depths may shift) are entirely untouched by the rewrite.
  const std::uint32_t victim_node = tree::node_of_participant(plan.victim);
  for (std::uint32_t j = 0; j < n; ++j) {
    if (j == plan.victim) continue;
    const std::uint32_t node = tree::node_of_participant(j);
    if (!inst.tree.is_ancestor(node, victim_node) &&
        !inst.tree.is_ancestor(victim_node, node)) {
      EXPECT_NEAR(after[j], before[j], 1e-9) << label << " bystander " << j;
    }
  }
}

class SybilPaymentPhase
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Plans, SybilPaymentPhase,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5),
                       ::testing::Values<std::uint32_t>(2, 3, 6)));

TEST_P(SybilPaymentPhase, ChainNeverIncreasesAttackerTreePayment) {
  const auto [seed, delta] = GetParam();
  const Instance inst = make_instance(seed);
  check_payment_phase_sybil(
      inst, attack::chain_plan(inst.tree, inst.asks, inst.victim, delta, 4.0),
      "chain");
}

TEST_P(SybilPaymentPhase, StarNeverIncreasesAttackerTreePayment) {
  const auto [seed, delta] = GetParam();
  const Instance inst = make_instance(seed);
  check_payment_phase_sybil(
      inst, attack::star_plan(inst.tree, inst.asks, inst.victim, delta, 4.0),
      "star");
}

TEST_P(SybilPaymentPhase, RandomPlansNeverIncreaseAttackerTreePayment) {
  const auto [seed, delta] = GetParam();
  const Instance inst = make_instance(seed);
  rng::Rng rng(seed * 31 + delta);
  for (int rep = 0; rep < 5; ++rep) {
    check_payment_phase_sybil(
        inst,
        attack::random_plan(inst.tree, inst.asks, inst.victim, delta, 4.0, rng),
        "random");
  }
}

// Same-type identities can never feed tree rewards to each other: an
// identity chain where everything below is the victim's own type yields
// exactly zero solicitation reward for the attacker.
TEST(SybilPaymentPhase, OwnTypeContributionsAreAlwaysExcluded) {
  // Tree: root -> P0 -> P1 -> P2, all the same type.
  const auto t = tree::chain_tree(3);
  const std::vector<TaskType> types(3, TaskType{0});
  const std::vector<double> pa{3.0, 5.0, 7.0};
  core::PaymentWorkspace ws;
  std::vector<double> p;
  core::tree_payments_into(t, types, pa, 0.5, 1, ws, p);
  EXPECT_EQ(p, pa);
}

// ---------- statistical full-mechanism layer ----------

struct MeanComparison {
  double truthful_mean{0.0};
  double attacked_mean{0.0};
  double slack{0.0};
};

MeanComparison compare_means(const Instance& inst, const SybilPlan& plan,
                             int trials) {
  const AttackedInstance attacked = attack::apply_sybil(inst.tree, inst.asks, plan);
  const double cost = inst.asks[inst.victim].value;  // truthful: value == cost
  // Completion mode so the allocations (and hence utilities) are
  // non-trivial; the same-ask sybil analysis of Lemma 6.4 is round-count
  // independent.
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  stats::OnlineStats truthful;
  stats::OnlineStats attacked_stats;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 0xace0 + static_cast<std::uint64_t>(t);
    {
      rng::Rng rng(seed);
      const core::RitResult r =
          core::run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
      truthful.add(r.utility_of(inst.victim, cost));
    }
    {
      rng::Rng rng(seed);
      const core::RitResult r =
          core::run_rit(inst.job, attacked.asks, attacked.tree, cfg, rng);
      attacked_stats.add(attacked.attacker_utility(r, cost));
    }
  }
  MeanComparison cmp;
  cmp.truthful_mean = truthful.mean();
  cmp.attacked_mean = attacked_stats.mean();
  cmp.slack = truthful.ci95_half_width() + attacked_stats.ci95_half_width();
  return cmp;
}

TEST(SybilFullMechanism, SameAskChainDoesNotProfitInExpectation) {
  const Instance inst = make_instance(11);
  const auto plan =
      attack::chain_plan(inst.tree, inst.asks, inst.victim, 3,
                         inst.asks[inst.victim].value);
  const MeanComparison cmp = compare_means(inst, plan, 250);
  EXPECT_LE(cmp.attacked_mean, cmp.truthful_mean + cmp.slack + 0.05)
      << "truthful=" << cmp.truthful_mean << " attacked=" << cmp.attacked_mean;
}

TEST(SybilFullMechanism, SameAskStarDoesNotProfitInExpectation) {
  const Instance inst = make_instance(12);
  const auto plan = attack::star_plan(inst.tree, inst.asks, inst.victim, 6,
                                      inst.asks[inst.victim].value);
  const MeanComparison cmp = compare_means(inst, plan, 250);
  EXPECT_LE(cmp.attacked_mean, cmp.truthful_mean + cmp.slack + 0.05);
}

TEST(SybilFullMechanism, OverbiddingSybilDoesNotProfitInExpectation) {
  const Instance inst = make_instance(13);
  const auto plan = attack::chain_plan(inst.tree, inst.asks, inst.victim, 2,
                                       inst.asks[inst.victim].value * 1.4);
  const MeanComparison cmp = compare_means(inst, plan, 250);
  EXPECT_LE(cmp.attacked_mean, cmp.truthful_mean + cmp.slack + 0.05);
}

TEST(SybilFullMechanism, RandomPlansDoNotProfitInExpectation) {
  const Instance inst = make_instance(14);
  rng::Rng plan_rng(99);
  for (std::uint32_t delta : {2u, 4u, 6u}) {
    const auto plan = attack::random_plan(inst.tree, inst.asks, inst.victim,
                                          delta, inst.asks[inst.victim].value,
                                          plan_rng);
    const MeanComparison cmp = compare_means(inst, plan, 200);
    EXPECT_LE(cmp.attacked_mean, cmp.truthful_mean + cmp.slack + 0.05)
        << "delta=" << delta;
  }
}

}  // namespace
}  // namespace rit
