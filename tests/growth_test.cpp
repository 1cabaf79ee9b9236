#include <gtest/gtest.h>

#include "common/check.h"
#include "core/rit.h"
#include "graph/generators.h"
#include "sim/growth.h"
#include "sim/runner.h"

namespace rit::sim {
namespace {

Population uniform_population(std::uint32_t n, std::uint32_t num_types,
                              std::uint32_t quantity, std::uint64_t seed) {
  Scenario s;
  s.num_users = n;
  s.num_types = num_types;
  s.k_max = quantity;
  rng::Rng rng(seed);
  Population pop = generate_population(s, rng);
  for (auto& ask : pop.truthful_asks) ask.quantity = quantity;
  return pop;
}

TEST(Growth, StopsAtExactlyEnoughSupplySingleType) {
  // A path graph: users join strictly one per wave, each contributing 2
  // units of the single type. Demand 10, multiple 2 -> target 20 units ->
  // exactly 10 users.
  const graph::Graph g = graph::path(50);
  Population pop = uniform_population(50, 1, 2, 1);
  const core::Job job(std::vector<std::uint32_t>{10});
  GrowthOptions opts;
  const GrowthResult res = grow_until_supply(g, pop, job, opts);
  EXPECT_TRUE(res.supply_met);
  EXPECT_EQ(res.joined.size(), 10u);
  EXPECT_EQ(res.supply_by_type[0], 20u);
  EXPECT_EQ(res.tree.num_participants(), 10u);
  // Path graph -> chain tree.
  EXPECT_EQ(res.tree.max_depth(), 10u);
}

TEST(Growth, MultiTypeWaitsForTheScarcestType) {
  // Users alternate types along a path; type-1 demand dominates.
  const graph::Graph g = graph::path(100);
  Population pop = uniform_population(100, 2, 1, 2);
  for (std::uint32_t u = 0; u < 100; ++u) {
    pop.truthful_asks[u].type = TaskType{u % 2};
  }
  const core::Job job(std::vector<std::uint32_t>{2, 10});
  GrowthOptions opts;
  const GrowthResult res = grow_until_supply(g, pop, job, opts);
  EXPECT_TRUE(res.supply_met);
  EXPECT_GE(res.supply_by_type[0], 4u);
  EXPECT_GE(res.supply_by_type[1], 20u);
  // Needs 20 odd-indexed users -> 40 joiners.
  EXPECT_EQ(res.joined.size(), 40u);
}

TEST(Growth, ReportsFailureWhenGraphTooSmall) {
  const graph::Graph g = graph::path(5);
  Population pop = uniform_population(5, 1, 1, 3);
  const core::Job job(std::vector<std::uint32_t>{10});
  GrowthOptions opts;
  const GrowthResult res = grow_until_supply(g, pop, job, opts);
  EXPECT_FALSE(res.supply_met);
  EXPECT_EQ(res.joined.size(), 5u);

  // The exhausted tree still clears: RIT fails closed and pays nobody.
  std::vector<core::Ask> asks;
  for (std::uint32_t u : res.joined) asks.push_back(pop.truthful_asks[u]);
  core::RitConfig cfg;
  rng::Rng rng(9);
  const core::RitResult r = core::run_rit(job, asks, res.tree, cfg, rng);
  EXPECT_FALSE(r.success);
  EXPECT_DOUBLE_EQ(r.total_payment(), 0.0);
}

TEST(Growth, RespectsMaxUsers) {
  const graph::Graph g = graph::path(50);
  Population pop = uniform_population(50, 1, 1, 4);
  const core::Job job(std::vector<std::uint32_t>{10});
  GrowthOptions opts;
  opts.max_users = 7;
  const GrowthResult res = grow_until_supply(g, pop, job, opts);
  EXPECT_FALSE(res.supply_met);
  EXPECT_EQ(res.joined.size(), 7u);
}

TEST(Growth, SupplyMultipleScalesTheTarget) {
  const graph::Graph g = graph::path(60);
  Population pop = uniform_population(60, 1, 1, 5);
  const core::Job job(std::vector<std::uint32_t>{10});
  GrowthOptions two;
  two.supply_multiple = 2.0;
  GrowthOptions four;
  four.supply_multiple = 4.0;
  EXPECT_EQ(grow_until_supply(g, pop, job, two).joined.size(), 20u);
  EXPECT_EQ(grow_until_supply(g, pop, job, four).joined.size(), 40u);
}

TEST(Growth, GrownTreeRunsThroughRit) {
  rng::Rng graph_rng(6);
  const graph::Graph g = graph::barabasi_albert(2000, 3, graph_rng);
  Scenario s;
  s.num_users = 2000;
  s.num_types = 3;
  s.k_max = 4;
  rng::Rng pop_rng(7);
  const Population pop = generate_population(s, pop_rng);
  const core::Job job = core::Job::uniform(3, 50);
  GrowthOptions opts;
  opts.seeds = {0, 1, 2};
  const GrowthResult grown = grow_until_supply(g, pop, job, opts);
  ASSERT_TRUE(grown.supply_met);
  EXPECT_LT(grown.joined.size(), 2000u);  // stopped early

  // Asks of the joined users, in join order (participant i = joined[i]).
  std::vector<core::Ask> asks;
  std::vector<double> costs;
  for (std::uint32_t u : grown.joined) {
    asks.push_back(pop.truthful_asks[u]);
    costs.push_back(pop.costs[u]);
  }
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  rng::Rng rng(8);
  const core::RitResult r = core::run_rit(job, asks, grown.tree, cfg, rng);
  EXPECT_TRUE(r.success);
  for (std::size_t j = 0; j < asks.size(); ++j) {
    EXPECT_GE(r.utility_of(static_cast<std::uint32_t>(j), costs[j]), -1e-9);
  }
}

TEST(Growth, RejectsBadOptions) {
  const graph::Graph g = graph::path(5);
  Population pop = uniform_population(5, 1, 1, 9);
  const core::Job job(std::vector<std::uint32_t>{2});
  GrowthOptions opts;
  opts.supply_multiple = 0.0;
  EXPECT_THROW(grow_until_supply(g, pop, job, opts), CheckFailure);
  opts.supply_multiple = 2.0;
  opts.seeds.clear();
  EXPECT_THROW(grow_until_supply(g, pop, job, opts), CheckFailure);
  opts.seeds = {99};
  EXPECT_THROW(grow_until_supply(g, pop, job, opts), CheckFailure);
}

}  // namespace
}  // namespace rit::sim
