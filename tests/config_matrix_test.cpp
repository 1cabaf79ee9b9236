// Configuration-matrix invariants: the paper's pathwise guarantees must
// hold under EVERY supported configuration, not just the defaults. This
// suite sweeps (price mode x discount base x round-budget policy x graph
// family) and asserts, per cell: individual rationality, the budget bound,
// payment monotonicity, exact job coverage on success, and a clean audit
// report.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/audit.h"
#include "core/payment.h"
#include "core/rit.h"
#include "sim/runner.h"

namespace rit {
namespace {

using MatrixParam = std::tuple<core::PriceMode, double,
                               core::RoundBudgetPolicy, sim::GraphKind>;

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

INSTANTIATE_TEST_SUITE_P(
    Cells, ConfigMatrix,
    ::testing::Combine(
        ::testing::Values(core::PriceMode::kConsensus,
                          core::PriceMode::kOrderStatistic),
        ::testing::Values(0.25, 0.5),
        ::testing::Values(core::RoundBudgetPolicy::kTheoretical,
                          core::RoundBudgetPolicy::kRunToCompletion),
        ::testing::Values(sim::GraphKind::kBarabasiAlbert,
                          sim::GraphKind::kErdosRenyi,
                          sim::GraphKind::kStar)));

sim::Scenario matrix_scenario(const MatrixParam& p) {
  sim::Scenario s;
  s.num_users = 500;
  s.num_types = 3;
  s.tasks_per_type = 25;
  s.k_max = 5;
  s.initial_joiners = 4;
  s.seed = 97;
  s.mechanism.price_mode = std::get<0>(p);
  s.mechanism.discount_base = std::get<1>(p);
  s.mechanism.round_budget_policy = std::get<2>(p);
  s.graph = std::get<3>(p);
  return s;
}

TEST_P(ConfigMatrix, PathwiseInvariantsHold) {
  const sim::Scenario s = matrix_scenario(GetParam());
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const sim::TrialInstance inst = sim::make_instance(s, trial);
    rng::Rng rng(inst.mechanism_seed);
    const core::RitResult r =
        core::run_rit(inst.job, inst.population.truthful_asks, inst.tree,
                      s.mechanism, rng);

    std::uint64_t total_allocated = 0;
    for (std::uint32_t j = 0; j < inst.population.size(); ++j) {
      // Individual rationality under truthful asks.
      EXPECT_GE(r.utility_of(j, inst.population.costs[j]), -1e-9);
      // Payment monotonicity.
      EXPECT_GE(r.payment[j], r.auction_payment[j] - 1e-12);
      total_allocated += r.allocation[j];
    }
    if (r.success) {
      EXPECT_EQ(total_allocated, inst.job.total_tasks());
      EXPECT_LE(core::solicitation_premium(r.payment, r.auction_payment),
                r.total_auction_payment() + 1e-9);
    } else {
      EXPECT_EQ(total_allocated, 0u);
      EXPECT_EQ(r.total_payment(), 0.0);
    }
    const core::AuditReport audit =
        core::audit_payments(inst.tree, inst.population.truthful_asks, r,
                             s.mechanism.discount_base);
    EXPECT_TRUE(audit.ok) << (audit.violations.empty()
                                  ? ""
                                  : audit.violations.front());
  }
}

TEST_P(ConfigMatrix, ReplayIsBitIdentical) {
  const sim::Scenario s = matrix_scenario(GetParam());
  const sim::TrialInstance inst = sim::make_instance(s, 0);
  rng::Rng a(inst.mechanism_seed);
  rng::Rng b(inst.mechanism_seed);
  const core::RitResult ra = core::run_rit(
      inst.job, inst.population.truthful_asks, inst.tree, s.mechanism, a);
  const core::RitResult rb = core::run_rit(
      inst.job, inst.population.truthful_asks, inst.tree, s.mechanism, b);
  EXPECT_EQ(ra.allocation, rb.allocation);
  EXPECT_EQ(ra.payment, rb.payment);
  EXPECT_EQ(ra.achieved_probability, rb.achieved_probability);
}

}  // namespace
}  // namespace rit
