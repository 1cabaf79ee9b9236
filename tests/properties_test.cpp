// Property tests for the paper's theorems that admit per-run (pathwise)
// verification: individual rationality (Thm 1), the budget bound (Sec. 7-C),
// and solicitation incentive (Thm 4). Statistical properties (truthfulness,
// sybil-proofness) live in truthfulness_test.cpp / sybil_properties_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "core/payment.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

struct RandomInstance {
  Job job;
  std::vector<Ask> asks;
  std::vector<double> costs;
  tree::IncentiveTree tree;
};

RandomInstance make_random_instance(std::uint64_t seed) {
  rng::Rng rng(seed);
  const auto num_types = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
  const auto n = static_cast<std::uint32_t>(50 + rng.uniform_index(300));
  std::vector<std::uint32_t> demand(num_types);
  for (auto& d : demand) {
    d = static_cast<std::uint32_t>(5 + rng.uniform_index(30));
  }
  std::vector<Ask> asks;
  std::vector<double> costs;
  for (std::uint32_t j = 0; j < n; ++j) {
    const double cost = rng.uniform_real_left_open(0.0, 10.0);
    asks.push_back(Ask{
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))},
        static_cast<std::uint32_t>(rng.uniform_int(1, 4)), cost});
    costs.push_back(cost);
  }
  auto tree = tree::random_recursive_tree(n, 0.15, rng);
  return RandomInstance{Job(std::move(demand)), std::move(asks),
                        std::move(costs), std::move(tree)};
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// Theorem 1: U_j(t_j, k_j, c_j) >= 0 — with truthful asks no user ever ends
// up below zero, whether the run succeeds (payments >= auction payments >=
// cost) or fails (all-zero).
TEST_P(SeededProperty, IndividualRationalityUnderTruthfulBidding) {
  const RandomInstance inst = make_random_instance(GetParam());
  rng::Rng rng(GetParam() ^ 0xabcdef);
  const RitResult r =
      run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, rng);
  for (std::uint32_t j = 0; j < inst.asks.size(); ++j) {
    EXPECT_GE(r.utility_of(j, inst.costs[j]), -1e-9)
        << "user " << j << " seed " << GetParam();
  }
}

// Lemma 6.1 specialized: auction payments cover costs per user even on
// partial (diagnostic, zero_on_failure=false) runs.
TEST_P(SeededProperty, AuctionPaymentsCoverCosts) {
  const RandomInstance inst = make_random_instance(GetParam());
  rng::Rng rng(GetParam() ^ 0x123456);
  RitConfig cfg;
  cfg.zero_on_failure = false;
  const RitResult r = run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
  for (std::uint32_t j = 0; j < inst.asks.size(); ++j) {
    EXPECT_GE(r.auction_payment[j],
              static_cast<double>(r.allocation[j]) * inst.costs[j] - 1e-9);
  }
}

// Sec. 7-C budget bound: the platform's solicitation premium never exceeds
// the total auction payment.
TEST_P(SeededProperty, SolicitationPremiumBoundedByAuctionTotal) {
  const RandomInstance inst = make_random_instance(GetParam());
  rng::Rng rng(GetParam() ^ 0x777);
  const RitResult r =
      run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, rng);
  const double premium =
      solicitation_premium(r.payment, r.auction_payment);
  EXPECT_GE(premium, -1e-9);
  EXPECT_LE(premium, r.total_auction_payment() + 1e-9);
}

// Theorem 4 (solicitation incentive): when a new user is about to join, an
// existing user prefers the joiner as its own child over anyone else's.
// With a fixed mechanism seed the auction phase is identical under every
// placement of the (last-indexed) joiner, so the comparison is exact.
TEST_P(SeededProperty, SolicitationIncentive) {
  const RandomInstance base = make_random_instance(GetParam());
  rng::Rng placement_rng(GetParam() ^ 0x5151);
  const auto n = static_cast<std::uint32_t>(base.asks.size());

  // The joiner: a fresh user with a random ask.
  std::vector<Ask> asks = base.asks;
  asks.push_back(
      Ask{TaskType{static_cast<std::uint32_t>(
              placement_rng.uniform_index(base.job.num_types()))},
          2, placement_rng.uniform_real_left_open(0.0, 10.0)});

  const std::uint32_t watcher =
      static_cast<std::uint32_t>(placement_rng.uniform_index(n));
  const std::uint32_t other =
      static_cast<std::uint32_t>(placement_rng.uniform_index(n));

  auto utility_with_parent = [&](std::uint32_t parent_node) {
    std::vector<std::uint32_t> parents = base.tree.parents();
    parents.push_back(parent_node);
    const tree::IncentiveTree t(std::move(parents));
    rng::Rng rng(GetParam() ^ 0x9e37);  // same stream for every placement
    const RitResult r = run_rit(base.job, asks, t, RitConfig{}, rng);
    return r.utility_of(watcher, base.costs[watcher]);
  };

  const double as_own_child =
      utility_with_parent(tree::node_of_participant(watcher));
  const double as_others_child =
      utility_with_parent(tree::node_of_participant(other));
  const double as_platform_child = utility_with_parent(0);
  if (other != watcher) {
    EXPECT_GE(as_own_child, as_others_child - 1e-9) << "seed " << GetParam();
  }
  EXPECT_GE(as_own_child, as_platform_child - 1e-9) << "seed " << GetParam();
}

// Failure semantics: whenever success is false everything is zero, and
// whenever it is true the job is exactly covered.
TEST_P(SeededProperty, SuccessIsExactCoverageFailureIsAllZero) {
  const RandomInstance inst = make_random_instance(GetParam());
  rng::Rng rng(GetParam() ^ 0xfeed);
  const RitResult r =
      run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, rng);
  std::uint64_t total = 0;
  for (std::uint32_t x : r.allocation) total += x;
  if (r.success) {
    EXPECT_EQ(total, inst.job.total_tasks());
  } else {
    EXPECT_EQ(total, 0u);
    EXPECT_EQ(r.total_payment(), 0.0);
  }
}

// Payment monotonicity: p_j >= p_j^A for every user on successful runs.
TEST_P(SeededProperty, TreeRewardsAreNonNegative) {
  const RandomInstance inst = make_random_instance(GetParam());
  rng::Rng rng(GetParam() ^ 0xc0ffee);
  const RitResult r =
      run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, rng);
  for (std::size_t j = 0; j < inst.asks.size(); ++j) {
    EXPECT_GE(r.payment[j], r.auction_payment[j] - 1e-12);
  }
}

// Underreporting capability (claiming k < K) never helps in the sense that
// the allocation never exceeds the claim — the mechanism cannot force work
// beyond what a user offered.
TEST_P(SeededProperty, AllocationRespectsClaimedQuantity) {
  const RandomInstance inst = make_random_instance(GetParam());
  rng::Rng rng(GetParam() ^ 0xd00d);
  RitConfig cfg;
  cfg.zero_on_failure = false;
  const RitResult r = run_rit(inst.job, inst.asks, inst.tree, cfg, rng);
  for (std::size_t j = 0; j < inst.asks.size(); ++j) {
    EXPECT_LE(r.allocation[j], inst.asks[j].quantity);
  }
}

}  // namespace
}  // namespace rit::core
