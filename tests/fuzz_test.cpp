// Storm testing: hundreds of adversarially-shaped random instances through
// the full mechanism + audit, across wild configurations. The point is not
// any single expectation but that NOTHING crashes, every invariant holds,
// and every run audits clean — the catch-all net under all other tests.
#include <gtest/gtest.h>

#include <vector>

#include "core/audit.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

struct FuzzInstance {
  Job job{std::vector<std::uint32_t>{1}};
  std::vector<Ask> asks;
  std::vector<double> costs;
  tree::IncentiveTree tree = tree::IncentiveTree::root_only();
  RitConfig config;
};

FuzzInstance make_fuzz_instance(rng::Rng& rng) {
  FuzzInstance inst;
  // Wild job shapes: 1..8 types, demands from 0 to large, possibly zero for
  // some types (at least one positive).
  const auto num_types = static_cast<std::uint32_t>(1 + rng.uniform_index(8));
  std::vector<std::uint32_t> demand(num_types, 0);
  do {
    for (auto& d : demand) {
      d = rng.bernoulli(0.2)
              ? 0
              : static_cast<std::uint32_t>(rng.uniform_index(60));
    }
  } while (std::all_of(demand.begin(), demand.end(),
                       [](std::uint32_t d) { return d == 0; }));
  inst.job = Job(std::move(demand));

  // Wild populations: sometimes tiny (undersupplied), sometimes clustered
  // ask values (tie storms), sometimes huge quantities.
  const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(250));
  const bool clustered = rng.bernoulli(0.3);
  for (std::uint32_t j = 0; j < n; ++j) {
    const double cost = clustered
                            ? (1.0 + static_cast<double>(rng.uniform_index(4)))
                            : rng.uniform_real_left_open(0.0, 10.0);
    inst.asks.push_back(Ask{
        TaskType{static_cast<std::uint32_t>(
            rng.uniform_index(inst.job.num_types()))},
        static_cast<std::uint32_t>(1 + rng.uniform_index(
                                       rng.bernoulli(0.1) ? 200 : 6)),
        cost});
    inst.costs.push_back(cost);
  }

  // Wild trees: flat, chain, or random with varying branching.
  switch (rng.uniform_index(4)) {
    case 0:
      inst.tree = tree::flat_tree(n);
      break;
    case 1:
      inst.tree = tree::chain_tree(n);
      break;
    default:
      inst.tree = tree::random_recursive_tree(n, rng.uniform01(), rng);
      break;
  }

  // Wild configs.
  inst.config.h = rng.uniform_real(0.05, 0.95);
  inst.config.discount_base = rng.uniform_real(0.05, 0.95);
  inst.config.round_budget_policy = rng.bernoulli(0.5)
                                        ? RoundBudgetPolicy::kTheoretical
                                        : RoundBudgetPolicy::kRunToCompletion;
  inst.config.price_mode = rng.bernoulli(0.25) ? PriceMode::kOrderStatistic
                                               : PriceMode::kConsensus;
  inst.config.record_round_trace = rng.bernoulli(0.3);
  return inst;
}

class FuzzShard : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Shards, FuzzShard,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST_P(FuzzShard, StormOfRandomInstancesHoldsEveryInvariant) {
  rng::Rng rng(0xf022 + GetParam() * 7919);
  for (int iteration = 0; iteration < 60; ++iteration) {
    const FuzzInstance inst = make_fuzz_instance(rng);
    rng::Rng mech = rng.split();
    const RitResult r =
        run_rit(inst.job, inst.asks, inst.tree, inst.config, mech);

    // Invariants that must hold for EVERY configuration.
    std::uint64_t allocated = 0;
    for (std::size_t j = 0; j < inst.asks.size(); ++j) {
      ASSERT_LE(r.allocation[j], inst.asks[j].quantity);
      ASSERT_GE(r.utility_of(static_cast<std::uint32_t>(j), inst.costs[j]),
                -1e-9)
          << "IR violated at iteration " << iteration;
      ASSERT_GE(r.payment[j], r.auction_payment[j] - 1e-12);
      allocated += r.allocation[j];
    }
    if (r.success) {
      ASSERT_EQ(allocated, inst.job.total_tasks());
    } else {
      ASSERT_EQ(allocated, 0u);
      ASSERT_EQ(r.total_payment(), 0.0);
    }
    ASSERT_GE(r.achieved_probability, 0.0);
    ASSERT_LE(r.achieved_probability, 1.0);
    if (inst.config.record_round_trace) {
      for (const TypeAuctionInfo& info : r.type_info) {
        ASSERT_EQ(info.rounds.size(), info.rounds_used);
      }
    }
    const AuditReport audit =
        audit_payments(inst.tree, inst.asks, r, inst.config.discount_base);
    ASSERT_TRUE(audit.ok) << "iteration " << iteration << ": "
                          << (audit.violations.empty()
                                  ? ""
                                  : audit.violations.front());
  }
}

TEST(Fuzz, ReplayStability) {
  // Any fuzz instance replays bit-identically: catches hidden global state.
  rng::Rng rng(0xabad1dea);
  const FuzzInstance inst = make_fuzz_instance(rng);
  rng::Rng a(42);
  rng::Rng b(42);
  const RitResult ra = run_rit(inst.job, inst.asks, inst.tree, inst.config, a);
  const RitResult rb = run_rit(inst.job, inst.asks, inst.tree, inst.config, b);
  EXPECT_EQ(ra.payment, rb.payment);
  EXPECT_EQ(ra.allocation, rb.allocation);
}

}  // namespace
}  // namespace rit::core
