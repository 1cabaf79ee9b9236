#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "core/audit.h"
#include "core/payment.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

// platform -> {P1, P2}, P1 -> {P3, P4}, P4 -> {P5} (participants 0..4).
tree::IncentiveTree example_tree() {
  return tree::IncentiveTree({0, 0, 0, 1, 1, 4});
}

TEST(ExplainPayment, DecomposesIntoLines) {
  const auto t = example_tree();
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 20.0, 8.0, 4.0, 16.0};
  const PaymentExplanation e = explain_payment(t, types, pa, 0.5, 0);
  EXPECT_EQ(e.participant, 0u);
  EXPECT_DOUBLE_EQ(e.auction_payment, 10.0);
  // Contributors: P3 (2.0) and P4 (1.0); P5 is same-type, excluded.
  ASSERT_EQ(e.contributions.size(), 2u);
  EXPECT_EQ(e.contributions[0].participant, 2u);
  EXPECT_DOUBLE_EQ(e.contributions[0].share, 2.0);
  EXPECT_EQ(e.contributions[0].depth, 2u);
  EXPECT_EQ(e.contributions[1].participant, 3u);
  EXPECT_DOUBLE_EQ(e.contributions[1].share, 1.0);
  EXPECT_EQ(e.same_type_excluded, 1u);
  EXPECT_DOUBLE_EQ(e.total(), 13.0);
}

TEST(ExplainPayment, MatchesTreePayments) {
  rng::Rng rng(5);
  const std::uint32_t n = 150;
  const auto t = tree::random_recursive_tree(n, 0.1, rng);
  std::vector<TaskType> types;
  std::vector<double> pa;
  for (std::uint32_t i = 0; i < n; ++i) {
    types.push_back(
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(4))});
    pa.push_back(rng.bernoulli(0.4) ? rng.uniform01() * 10.0 : 0.0);
  }
  PaymentWorkspace ws;
  std::vector<double> payments;
  tree_payments_into(t, types, pa, 0.5, 1, ws, payments);
  for (std::uint32_t j = 0; j < n; j += 13) {
    const PaymentExplanation e = explain_payment(t, types, pa, 0.5, j);
    EXPECT_NEAR(e.total(), payments[j], 1e-9 * (1.0 + payments[j]))
        << "participant " << j;
  }
}

TEST(ExplainPayment, LeafHasNoLines) {
  const auto t = example_tree();
  const std::vector<TaskType> types(5, TaskType{0});
  const std::vector<double> pa(5, 3.0);
  const PaymentExplanation e = explain_payment(t, types, pa, 0.5, 4);
  EXPECT_TRUE(e.contributions.empty());
  EXPECT_EQ(e.same_type_excluded, 0u);
}

TEST(ExplainPayment, ZeroPaymentDescendantsAreSkipped) {
  const auto t = example_tree();
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 0.0, 0.0, 4.0, 0.0};
  const PaymentExplanation e = explain_payment(t, types, pa, 0.5, 0);
  ASSERT_EQ(e.contributions.size(), 1u);
  EXPECT_EQ(e.contributions[0].participant, 3u);
  EXPECT_EQ(e.same_type_excluded, 0u);  // P5's payment is zero
}

TEST(ExplainPayment, RenderMentionsKeyNumbers) {
  const auto t = example_tree();
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 20.0, 8.0, 4.0, 16.0};
  const std::string text = explain_payment(t, types, pa, 0.5, 0).render();
  EXPECT_NE(text.find("P1"), std::string::npos);
  EXPECT_NE(text.find("13.0000"), std::string::npos);
  EXPECT_NE(text.find("same-type"), std::string::npos);
}

TEST(ExplainPayment, RejectsBadInputs) {
  const auto t = example_tree();
  const std::vector<TaskType> types(5, TaskType{0});
  const std::vector<double> pa(5, 1.0);
  EXPECT_THROW(explain_payment(t, types, pa, 0.5, 9), CheckFailure);
  EXPECT_THROW(explain_payment(t, types, pa, 1.5, 0), CheckFailure);
}

struct AuditFixtureInstance {
  Job job = Job::uniform(2, 30);
  std::vector<Ask> asks;
  tree::IncentiveTree tree = tree::IncentiveTree::root_only();

  explicit AuditFixtureInstance(std::uint64_t seed) {
    rng::Rng rng(seed);
    for (std::uint32_t j = 0; j < 150; ++j) {
      asks.push_back(Ask{
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(2))},
          static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
          rng.uniform_real_left_open(0.0, 10.0)});
    }
    tree = tree::random_recursive_tree(150, 0.2, rng);
  }
};

TEST(AuditPayments, CleanRunPasses) {
  const AuditFixtureInstance inst(1);
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(2);
  const RitResult r = run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
  ASSERT_TRUE(r.success);
  const AuditReport report =
      audit_payments(inst.tree, inst.asks, r, cfg.discount_base);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
  EXPECT_NEAR(report.total_payment, r.total_payment(), 1e-9);
  EXPECT_GE(report.solicitation_premium, 0.0);
}

TEST(AuditPayments, FailedRunMustBeAllZero) {
  const AuditFixtureInstance inst(3);
  RitConfig cfg;  // theoretical budget; engineered failure below
  const Job impossible = Job::uniform(2, 100000);
  rng::Rng rng(4);
  const RitResult r = run_rit(impossible, inst.asks, inst.tree, cfg, rng);
  ASSERT_FALSE(r.success);
  const AuditReport report =
      audit_payments(inst.tree, inst.asks, r, cfg.discount_base);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.total_payment, 0.0);
}

TEST(AuditPayments, DetectsTamperedPayment) {
  const AuditFixtureInstance inst(5);
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(6);
  RitResult r = run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
  ASSERT_TRUE(r.success);
  r.payment[7] += 1.0;  // skim a unit into P8's pocket
  const AuditReport report =
      audit_payments(inst.tree, inst.asks, r, cfg.discount_base);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations.front().find("P8"), std::string::npos);
}

TEST(AuditPayments, DetectsTamperedAllocation) {
  const AuditFixtureInstance inst(7);
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(8);
  RitResult r = run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
  ASSERT_TRUE(r.success);
  r.allocation[3] = inst.asks[3].quantity + 5;  // beyond the user's claim
  const AuditReport report =
      audit_payments(inst.tree, inst.asks, r, cfg.discount_base);
  EXPECT_FALSE(report.ok);
}

TEST(AuditPayments, DetectsPaymentWithoutAllocation) {
  const AuditFixtureInstance inst(9);
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(10);
  RitResult r = run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
  ASSERT_TRUE(r.success);
  std::uint32_t loser = 0;
  while (r.allocation[loser] != 0) ++loser;
  r.auction_payment[loser] = 5.0;
  const AuditReport report =
      audit_payments(inst.tree, inst.asks, r, cfg.discount_base);
  EXPECT_FALSE(report.ok);
}

}  // namespace
}  // namespace rit::core
