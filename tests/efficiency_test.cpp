#include <gtest/gtest.h>

#include <vector>

#include "baselines/kth_price_auction.h"
#include "common/check.h"
#include "core/efficiency.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

TEST(Efficiency, AllocationCostSumsUnitCosts) {
  const std::vector<Ask> asks{{TaskType{0}, 3, 2.0}, {TaskType{0}, 2, 5.0}};
  const std::vector<std::uint32_t> x{2, 1};
  EXPECT_DOUBLE_EQ(allocation_cost(asks, x), 2 * 2.0 + 5.0);
  const std::vector<std::uint32_t> over{4, 0};
  EXPECT_THROW(allocation_cost(asks, over), CheckFailure);
}

TEST(Efficiency, OptimalCostPicksCheapestUnits) {
  // Type 0 demand 3: cheapest units are 1.0, 1.0 (user 0) and 2.0 (user 2).
  const Job job(std::vector<std::uint32_t>{3});
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0},
                              {TaskType{0}, 5, 9.0},
                              {TaskType{0}, 1, 2.0}};
  EXPECT_DOUBLE_EQ(optimal_cost(job, asks), 4.0);
}

TEST(Efficiency, OptimalCostInfeasibleIsNegative) {
  const Job job(std::vector<std::uint32_t>{10});
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}};
  EXPECT_LT(optimal_cost(job, asks), 0.0);
}

TEST(Efficiency, RatioIsOneForCheapestAssignment) {
  const Job job(std::vector<std::uint32_t>{2});
  const std::vector<Ask> asks{{TaskType{0}, 1, 1.0},
                              {TaskType{0}, 1, 2.0},
                              {TaskType{0}, 1, 8.0}};
  const std::vector<std::uint32_t> cheapest{1, 1, 0};
  EXPECT_DOUBLE_EQ(cost_efficiency(job, asks, cheapest), 1.0);
  const std::vector<std::uint32_t> wasteful{1, 0, 1};
  EXPECT_NEAR(cost_efficiency(job, asks, wasteful), 3.0 / 9.0, 1e-12);
}

TEST(Efficiency, KthPriceIsCostOptimal) {
  // The deterministic baseline allocates exactly the cheapest units.
  rng::Rng rng(1);
  std::vector<Ask> asks;
  for (int j = 0; j < 120; ++j) {
    asks.push_back(Ask{TaskType{0},
                       static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
                       rng.uniform_real_left_open(0.0, 10.0)});
  }
  const Job job(std::vector<std::uint32_t>{40});
  const auto out = baselines::multi_unit_kth_price(job, asks);
  ASSERT_TRUE(out.success);
  EXPECT_NEAR(cost_efficiency(job, asks, out.allocation), 1.0, 1e-9);
}

TEST(Efficiency, RitPaysAnAllocativePriceForRandomization) {
  // CRA's lottery deliberately spreads wins above the cheapest units: the
  // efficiency sits strictly below 1 but should stay in a sane band.
  rng::Rng setup(2);
  std::vector<Ask> asks;
  for (int j = 0; j < 300; ++j) {
    asks.push_back(Ask{TaskType{0},
                       static_cast<std::uint32_t>(setup.uniform_int(1, 3)),
                       setup.uniform_real_left_open(0.0, 10.0)});
  }
  const Job job(std::vector<std::uint32_t>{80});
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  double total_eff = 0.0;
  int successes = 0;
  for (int t = 0; t < 30; ++t) {
    rng::Rng rng(100 + t);
    const RitResult r = run_rit(job, asks, tree::flat_tree(300), cfg, rng);
    if (!r.success) continue;
    ++successes;
    const double eff = cost_efficiency(job, asks, r.allocation);
    EXPECT_GT(eff, 0.2);
    EXPECT_LE(eff, 1.0 + 1e-12);
    total_eff += eff;
  }
  ASSERT_GT(successes, 10);
  EXPECT_LT(total_eff / successes, 0.999);  // strictly sub-optimal on average
}

TEST(Efficiency, ZeroAllocationGivesZero) {
  const Job job(std::vector<std::uint32_t>{1});
  const std::vector<Ask> asks{{TaskType{0}, 1, 1.0}, {TaskType{0}, 1, 2.0}};
  const std::vector<std::uint32_t> none{0, 0};
  EXPECT_DOUBLE_EQ(cost_efficiency(job, asks, none), 0.0);
}

}  // namespace
}  // namespace rit::core
