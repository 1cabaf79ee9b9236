#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/payment.h"
#include "graph/generators.h"
#include "payment_reference.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

/// The production pass (tree_payments_into) through a fresh workspace.
std::vector<double> fast_payments(const tree::IncentiveTree& t,
                                  std::span<const TaskType> types,
                                  std::span<const double> pa, double base) {
  PaymentWorkspace ws;
  std::vector<double> out;
  tree_payments_into(t, types, pa, base, /*threads=*/1, ws, out);
  return out;
}

// platform -> {P1, P2}, P1 -> {P3, P4}, P4 -> {P5} (participants 0..4).
tree::IncentiveTree example_tree() {
  return tree::IncentiveTree({0, 0, 0, 1, 1, 4});
}

TEST(PaymentReference, HandComputedExample) {
  const auto t = example_tree();
  // Participants:      0        1        2        3        4
  // Node:              1        2        3        4        5
  // Depth:             1        1        2        2        3
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 20.0, 8.0, 4.0, 16.0};
  const auto p = tree_payments_reference(t, types, pa, 0.5);
  // P1 (participant 0, type 0) collects from descendants P3 (t1, depth 2),
  // P4 (t1, depth 2), P5 (t0, depth 3 — same type, excluded):
  EXPECT_DOUBLE_EQ(p[0], 10.0 + 0.25 * 8.0 + 0.25 * 4.0);
  // P2 (participant 1) is a leaf.
  EXPECT_DOUBLE_EQ(p[1], 20.0);
  // P3 leaf.
  EXPECT_DOUBLE_EQ(p[2], 8.0);
  // P4 (type 1) collects from P5 (type 0, depth 3).
  EXPECT_DOUBLE_EQ(p[3], 4.0 + 0.125 * 16.0);
  EXPECT_DOUBLE_EQ(p[4], 16.0);
}

TEST(PaymentReference, SameTypeDescendantsNeverContribute) {
  const auto t = tree::chain_tree(4);
  const std::vector<TaskType> types(4, TaskType{0});
  const std::vector<double> pa{1.0, 2.0, 4.0, 8.0};
  const auto p = tree_payments_reference(t, types, pa, 0.5);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(p[i], pa[i]) << "participant " << i;
  }
}

TEST(PaymentReference, AbsoluteDepthWeighting) {
  // Chain: P0 (depth1, t0) <- P1 (depth2, t1). P0 gets (1/2)^2 * pa1, i.e.
  // the contributor's absolute depth, not the relative distance 1.
  const auto t = tree::chain_tree(2);
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}};
  const std::vector<double> pa{0.0, 12.0};
  const auto p = tree_payments_reference(t, types, pa, 0.5);
  EXPECT_DOUBLE_EQ(p[0], 0.25 * 12.0);
}

TEST(PaymentReference, FlatTreeIsAuctionOnly) {
  const auto t = tree::flat_tree(6);
  const std::vector<TaskType> types(6, TaskType{0});
  std::vector<double> pa;
  for (int i = 0; i < 6; ++i) pa.push_back(i * 1.5);
  EXPECT_EQ(tree_payments_reference(t, types, pa, 0.5), pa);
}

TEST(PaymentReference, ConfigurableBase) {
  const auto t = tree::chain_tree(2);
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}};
  const std::vector<double> pa{0.0, 27.0};
  const auto p = tree_payments_reference(t, types, pa, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(p[0], 27.0 / 9.0);
}

TEST(PaymentFast, MatchesReferenceOnExample) {
  const auto t = example_tree();
  const std::vector<TaskType> types{TaskType{0}, TaskType{1}, TaskType{1},
                                    TaskType{1}, TaskType{0}};
  const std::vector<double> pa{10.0, 20.0, 8.0, 4.0, 16.0};
  EXPECT_EQ(fast_payments(t, types, pa, 0.5),
            tree_payments_reference(t, types, pa, 0.5));
}

TEST(PaymentFast, MatchesReferenceOnRandomTrees) {
  rng::Rng rng(100);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(200));
    const auto t = tree::random_recursive_tree(n, 0.2, rng);
    const auto num_types =
        static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    std::vector<TaskType> types;
    std::vector<double> pa;
    for (std::uint32_t i = 0; i < n; ++i) {
      types.push_back(
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))});
      pa.push_back(rng.bernoulli(0.3) ? 0.0
                                      : rng.uniform_real_left_open(0.0, 50.0));
    }
    const auto fast = fast_payments(t, types, pa, 0.5);
    const auto ref = tree_payments_reference(t, types, pa, 0.5);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-9 * (1.0 + std::abs(ref[i])))
          << "trial " << trial << " participant " << i;
    }
  }
}

TEST(PaymentFast, MatchesReferenceOnDeepChain) {
  // Depths in the thousands: the discount underflows to exactly 0.0 and the
  // two implementations must agree bit-for-bit on that.
  const std::uint32_t n = 2000;
  const auto t = tree::chain_tree(n);
  std::vector<TaskType> types;
  std::vector<double> pa;
  for (std::uint32_t i = 0; i < n; ++i) {
    types.push_back(TaskType{i % 2});
    pa.push_back(1.0);
  }
  const auto fast = fast_payments(t, types, pa, 0.5);
  const auto ref = tree_payments_reference(t, types, pa, 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-12) << i;
  }
}

TEST(PaymentFast, PaymentsAtLeastAuctionPayments) {
  rng::Rng rng(200);
  const auto t = tree::random_recursive_tree(300, 0.1, rng);
  std::vector<TaskType> types;
  std::vector<double> pa;
  for (std::uint32_t i = 0; i < 300; ++i) {
    types.push_back(
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(4))});
    pa.push_back(rng.uniform01() * 10.0);
  }
  const auto p = fast_payments(t, types, pa, 0.5);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_GE(p[i], pa[i]);
  }
}

TEST(PaymentFast, BudgetBoundPremiumAtMostTotalAuctionPayment) {
  // Sec. 7-C: sum(p_j - p_j^A) <= sum(p_j^A). Each contributor i at depth
  // r_i >= 1 feeds at most (r_i - 1) ancestors a share of (1/2)^(r_i) each,
  // totalling < p_i^A.
  rng::Rng rng(300);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::uint32_t>(2 + rng.uniform_index(400));
    const auto t = tree::random_recursive_tree(n, 0.05, rng);
    std::vector<TaskType> types;
    std::vector<double> pa;
    double total_pa = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      types.push_back(
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(5))});
      pa.push_back(rng.uniform01() * 10.0);
      total_pa += pa.back();
    }
    const auto p = fast_payments(t, types, pa, 0.5);
    EXPECT_LE(solicitation_premium(p, pa), total_pa + 1e-9);
  }
}

TEST(PaymentFast, EmptyTreeNoParticipants) {
  const auto t = tree::IncentiveTree::root_only();
  EXPECT_TRUE(fast_payments(t, {}, {}, 0.5).empty());
}

TEST(Payment, RejectsBadInputs) {
  const auto t = tree::flat_tree(2);
  const std::vector<TaskType> types{TaskType{0}, TaskType{0}};
  const std::vector<double> pa{1.0, 1.0};
  EXPECT_THROW(fast_payments(t, types, std::vector<double>{1.0}, 0.5),
               CheckFailure);
  EXPECT_THROW(fast_payments(t, types, pa, 0.0), CheckFailure);
  EXPECT_THROW(fast_payments(t, types, pa, 1.0), CheckFailure);
  const std::vector<TaskType> too_few{TaskType{0}};
  EXPECT_THROW(fast_payments(t, too_few, pa, 0.5), CheckFailure);
}

TEST(PaymentFast, IsLinearInAuctionPayments) {
  // p = pA + W * pA for a fixed weight matrix W determined by (tree, types,
  // base): scaling pA scales the payments, and payments of a sum are the
  // sum of payments. Catches any accidental nonlinearity (clamps, etc.).
  rng::Rng rng(400);
  const std::uint32_t n = 120;
  const auto t = tree::random_recursive_tree(n, 0.2, rng);
  std::vector<TaskType> types;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    types.push_back(
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(3))});
    a[i] = rng.uniform01() * 5.0;
    b[i] = rng.uniform01() * 7.0;
  }
  const auto pa = fast_payments(t, types, a, 0.5);
  const auto pb = fast_payments(t, types, b, 0.5);
  std::vector<double> sum(n);
  std::vector<double> scaled(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    sum[i] = a[i] + b[i];
    scaled[i] = 3.0 * a[i];
  }
  const auto psum = fast_payments(t, types, sum, 0.5);
  const auto pscaled = fast_payments(t, types, scaled, 0.5);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(psum[i], pa[i] + pb[i], 1e-9 * (1.0 + psum[i]));
    EXPECT_NEAR(pscaled[i], 3.0 * pa[i], 1e-9 * (1.0 + pscaled[i]));
  }
}

TEST(Payment, SolicitationPremiumComputation) {
  const std::vector<double> p{5.0, 3.0};
  const std::vector<double> pa{4.0, 3.0};
  EXPECT_DOUBLE_EQ(solicitation_premium(p, pa), 1.0);
}

// --- Bit-exact equivalence with the prefix-sum pass ------------------------

/// Runs tree_payments_into at 1 and 4 threads through one reused workspace
/// and requires every payment to equal the prefix-sum reference bit for bit.
void expect_matches_prefix_sum_pass(const tree::IncentiveTree& t,
                                    const std::vector<TaskType>& types,
                                    const std::vector<double>& pa) {
  const std::vector<double> want =
      reference::prefix_sum_payments(t, types, pa, 0.5);
  PaymentWorkspace ws;
  std::vector<double> got;
  for (const unsigned threads : {1u, 4u}) {
    tree_payments_into(t, types, pa, 0.5, threads, ws, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "participant " << i << " threads " << threads << ": " << got[i]
          << " vs " << want[i];
    }
  }
}

/// Types uniform over `num_types`; about 30% of participants win, paid in
/// (0, 10], the rest are paid 0 (the shape of an auction outcome).
void random_market(std::uint32_t n, std::uint32_t num_types, rng::Rng& rng,
                   std::vector<TaskType>& types, std::vector<double>& pa) {
  types.resize(n);
  pa.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    types[i] =
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))};
    pa[i] = rng.bernoulli(0.3) ? rng.uniform_real_left_open(0.0, 10.0) : 0.0;
  }
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnBarabasiAlbertForest) {
  rng::Rng rng(500);
  const graph::Graph g = graph::barabasi_albert(20000, 3, rng);
  tree::SpanningForestOptions opts;
  opts.seeds.resize(10);
  std::iota(opts.seeds.begin(), opts.seeds.end(), 0u);
  const tree::IncentiveTree t = tree::build_spanning_forest(g, opts).tree;
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(t.num_participants(), 10, rng, types, pa);
  expect_matches_prefix_sum_pass(t, types, pa);
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnDeepChain) {
  // 5000 open subtrees on the stack at once; deep discounts underflow to 0.
  rng::Rng rng(501);
  const tree::IncentiveTree t = tree::chain_tree(5000);
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(5000, 3, rng, types, pa);
  expect_matches_prefix_sum_pass(t, types, pa);
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnStar) {
  // One hub under the platform with every other participant as its child.
  const std::uint32_t n = 3000;
  std::vector<std::uint32_t> parents(n + 1, 1);
  parents[0] = 0;
  parents[1] = 0;
  rng::Rng rng(502);
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(n, 4, rng, types, pa);
  expect_matches_prefix_sum_pass(tree::IncentiveTree(parents), types, pa);
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassWithOneType) {
  // Every descendant shares its ancestor's type: all rewards are zero.
  rng::Rng rng(503);
  const tree::IncentiveTree t = tree::random_recursive_tree(5000, 0.05, rng);
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(5000, 1, rng, types, pa);
  expect_matches_prefix_sum_pass(t, types, pa);
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassWithZeroAuctionPayments) {
  rng::Rng rng(504);
  const tree::IncentiveTree t = tree::random_recursive_tree(5000, 0.05, rng);
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(5000, 10, rng, types, pa);
  std::fill(pa.begin(), pa.end(), 0.0);
  expect_matches_prefix_sum_pass(t, types, pa);
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnRandomTrees) {
  rng::Rng rng(505);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(300));
    const tree::IncentiveTree t = tree::random_recursive_tree(n, 0.2, rng);
    std::vector<TaskType> types;
    std::vector<double> pa;
    random_market(n, static_cast<std::uint32_t>(1 + rng.uniform_index(6)), rng,
                  types, pa);
    expect_matches_prefix_sum_pass(t, types, pa);
  }
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnAChainOf100k) {
  // 10^5 open subtrees on the stack at once, every one closed by the
  // sentinel-bottomed scan's final pass.
  rng::Rng rng(506);
  const tree::IncentiveTree t = tree::chain_tree(100000);
  ASSERT_EQ(t.max_depth(), 100000u);
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(100000, 3, rng, types, pa);
  expect_matches_prefix_sum_pass(t, types, pa);
}

TEST(PaymentScan, RootOnlyTreeHasNoPayments) {
  PaymentWorkspace ws;
  std::vector<double> out{1.0, 2.0};
  tree_payments_into(tree::IncentiveTree::root_only(), {}, {}, 0.5, 1, ws,
                     out);
  EXPECT_TRUE(out.empty());
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnDrawnBaForests) {
  // The trial's own tree: shallow and wide, most nodes leaves.
  for (const std::uint32_t m : {1u, 3u}) {
    for (const std::uint32_t n : {m + 1, 50u, 20000u}) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n);
      rng::Rng rng(507 + m);
      const tree::IncentiveTree t = tree::barabasi_albert_forest(n, m, 10, rng);
      std::vector<TaskType> types;
      std::vector<double> pa;
      random_market(n, 10, rng, types, pa);
      expect_matches_prefix_sum_pass(t, types, pa);
    }
  }
}

/// A spine 1 -> 3 -> 5 -> ... of `depth` nodes under the root, each with
/// a leaf child of the next lower id: a leaf precedes the rest of the spine
/// in preorder, so the last preorder node is the spine's bottom, which
/// closes every open subtree at once.
std::vector<std::uint32_t> spine_with_leaves(std::uint32_t depth) {
  std::vector<std::uint32_t> parents(2 * std::size_t{depth}, 0);
  for (std::uint32_t i = 1; i < depth; ++i) {
    parents[2 * i] = 2 * i - 1;      // the leaf of spine node 2i - 1
    parents[2 * i + 1] = 2 * i - 1;  // the next spine node
  }
  return parents;
}

TEST(PaymentScan, LastPreorderNodeClosesEveryOpenSubtree) {
  for (const std::uint32_t depth : {1u, 2u, 7u, 3000u}) {
    SCOPED_TRACE(testing::Message() << "depth=" << depth);
    const tree::IncentiveTree t(spine_with_leaves(depth));
    ASSERT_EQ(t.preorder().back(), 2 * depth - 1);
    ASSERT_EQ(t.depth(t.preorder().back()), depth);
    rng::Rng rng(509);
    std::vector<TaskType> types;
    std::vector<double> pa;
    random_market(t.num_participants(), 4, rng, types, pa);
    expect_matches_prefix_sum_pass(t, types, pa);
    std::fill(pa.begin(), pa.end(), 1.0);  // every contributor pays
    expect_matches_prefix_sum_pass(t, types, pa);
  }
}

TEST(PaymentScan, BitIdenticalToPrefixSumPassOnForwardReferencingTrees) {
  // The general layout path: participants relabeled so most parents point
  // forward; the sizes it stores by position feed the same scan.
  rng::Rng rng(510);
  const tree::IncentiveTree base = tree::random_recursive_tree(4000, 0.05, rng);
  std::vector<std::uint32_t> relabel(base.num_nodes());
  std::iota(relabel.begin(), relabel.end(), 0u);
  rng.shuffle(std::span<std::uint32_t>(relabel).subspan(1));
  std::vector<std::uint32_t> parents(base.num_nodes(), 0);
  for (std::uint32_t v = 1; v < base.num_nodes(); ++v) {
    parents[relabel[v]] = relabel[base.parent(v)];
  }
  const tree::IncentiveTree t(parents);
  std::vector<TaskType> types;
  std::vector<double> pa;
  random_market(4000, 5, rng, types, pa);
  expect_matches_prefix_sum_pass(t, types, pa);
}

}  // namespace
}  // namespace rit::core
