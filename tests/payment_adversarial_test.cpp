// Differential payment coverage on adversarial tree shapes at scale: a
// 1e5-deep chain, a 1e5-wide star, and a 1e5-tooth comb. The production
// O(N) preorder scan (at every `threads` setting) is pinned against a
// reference on each shape. For the star and comb the committed O(Σdepth)
// reference is affordable; for the deep chain Σdepth is ~5e9, so the test
// uses a local sparse reference instead — only a handful of contributors
// carry nonzero auction payments, and walking just their ancestor chains
// is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/payment.h"
#include "rng/rng.h"
#include "tree/incentive_tree.h"

namespace rit::core {
namespace {

constexpr std::uint32_t kScale = 100000;
constexpr double kBase = 0.5;

// Round-robin types so every chain/comb segment crosses type boundaries
// (same-type ancestors must be excluded — that path has to be exercised,
// not vacuous).
std::vector<TaskType> round_robin_types(std::uint32_t n,
                                        std::uint32_t num_types) {
  std::vector<TaskType> types;
  types.reserve(n);
  for (std::uint32_t j = 0; j < n; ++j) types.push_back(TaskType{j % num_types});
  return types;
}

// Exact payments computed from the nonzero contributors only: participant
// i at absolute depth d feeds base^d * pA_i to every different-type strict
// ancestor. O(nonzeros * depth), independent of total tree size... except
// through the ancestor walks, which is why callers keep nonzeros sparse.
std::vector<double> sparse_reference(const tree::IncentiveTree& tree,
                                     const std::vector<TaskType>& types,
                                     const std::vector<double>& auction) {
  std::vector<double> pay = auction;
  for (std::uint32_t i = 0; i < auction.size(); ++i) {
    if (auction[i] == 0.0) continue;
    const std::uint32_t node = tree::node_of_participant(i);
    const double weighted =
        std::pow(kBase, static_cast<double>(tree.depth(node))) * auction[i];
    for (std::uint32_t a = tree.parent(node); a != 0; a = tree.parent(a)) {
      if (types[a - 1] != types[i]) pay[a - 1] += weighted;
    }
  }
  return pay;
}

void expect_all_near(const std::vector<double>& actual,
                     const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t j = 0; j < actual.size(); ++j) {
    // The production running-sum scan accumulates in a different order than
    // the ancestor walk; 1e-9 relative covers the reassociation.
    const double tol = 1e-9 * (1.0 + std::abs(expected[j]));
    ASSERT_NEAR(actual[j], expected[j], tol) << "participant " << j;
  }
}

/// The production payments at 1 thread, through one workspace that then
/// runs 2 and 4 threads too; those must equal them bit for bit, not merely
/// near: the scan ignores `threads`, so every setting runs the same serial
/// computation.
std::vector<double> production_payments(const tree::IncentiveTree& tree,
                                        const std::vector<TaskType>& types,
                                        const std::vector<double>& auction) {
  PaymentWorkspace ws;
  std::vector<double> serial;
  tree_payments_into(tree, types, auction, kBase, 1, ws, serial);
  std::vector<double> out;
  for (unsigned threads : {2u, 4u}) {
    tree_payments_into(tree, types, auction, kBase, threads, ws, out);
    const auto diff = std::mismatch(out.begin(), out.end(), serial.begin(),
                                    serial.end());
    EXPECT_TRUE(diff.first == out.end() && diff.second == serial.end())
        << "threads=" << threads << " j=" << (diff.first - out.begin());
  }
  return serial;
}

TEST(PaymentAdversarial, ChainDepth100k) {
  // One chain of 1e5 participants: node j+1 hangs under node j. Depths run
  // 1..1e5, so base^depth underflows to exactly 0.0 past depth ~1074 —
  // both implementations must agree through and past the underflow.
  std::vector<std::uint32_t> parents(kScale + 1, 0);
  for (std::uint32_t j = 1; j < kScale; ++j) parents[j + 1] = j;
  const tree::IncentiveTree tree{parents};
  ASSERT_EQ(tree.max_depth(), kScale);

  const auto types = round_robin_types(kScale, 3);
  std::vector<double> auction(kScale, 0.0);
  rng::Rng rng(20240801);
  for (int i = 0; i < 64; ++i) {
    // Bias contributors toward the shallow end, where discounts are live,
    // but keep some deep ones to cross the underflow boundary.
    const std::uint32_t j =
        i < 48 ? static_cast<std::uint32_t>(rng.uniform_u64(2000))
               : static_cast<std::uint32_t>(rng.uniform_u64(kScale));
    auction[j] = 1.0 + rng.uniform01();
  }

  const auto prod = production_payments(tree, types, auction);
  expect_all_near(prod, sparse_reference(tree, types, auction));
}

TEST(PaymentAdversarial, StarFanOut100k) {
  // Every participant directly under the root: depth 1 everywhere, no
  // strict non-root ancestors, so payments must equal auction payments —
  // with every participant paid, not a sparse subset.
  std::vector<std::uint32_t> parents(kScale + 1, 0);
  const tree::IncentiveTree tree{parents};
  ASSERT_EQ(tree.max_depth(), 1u);

  const auto types = round_robin_types(kScale, 3);
  std::vector<double> auction(kScale, 0.0);
  rng::Rng rng(20240802);
  for (std::uint32_t j = 0; j < kScale; ++j) {
    auction[j] = rng.uniform01();
  }

  const auto prod = production_payments(tree, types, auction);
  // Σdepth = 1e5 here: the committed full reference is affordable.
  expect_all_near(prod, tree_payments_reference(tree, types, auction, kBase));
  for (std::uint32_t j = 0; j < kScale; ++j) {
    ASSERT_EQ(prod[j], auction[j]) << "star node " << j;
  }
}

TEST(PaymentAdversarial, Comb100k) {
  // A spine of 5e4 nodes, each with one tooth: half the participants deep
  // on the spine, half hanging one level below it. Exercises the mix of
  // long ancestor chains and wide shallow structure in one tree.
  const std::uint32_t spine = kScale / 2;
  std::vector<std::uint32_t> parents(kScale + 1, 0);
  for (std::uint32_t s = 1; s < spine; ++s) parents[s + 1] = s;  // spine
  for (std::uint32_t t = 0; t < spine; ++t) {
    parents[spine + t + 1] = t + 1;  // tooth t under spine node t+1
  }
  const tree::IncentiveTree tree{parents};
  ASSERT_EQ(tree.max_depth(), spine + 1);

  const auto types = round_robin_types(kScale, 3);
  std::vector<double> auction(kScale, 0.0);
  rng::Rng rng(20240803);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t j = static_cast<std::uint32_t>(
        i % 2 == 0 ? rng.uniform_u64(2000)            // shallow spine
                   : spine + rng.uniform_u64(2000));  // teeth of that region
    auction[j] = 1.0 + rng.uniform01();
  }

  const auto prod = production_payments(tree, types, auction);
  expect_all_near(prod, sparse_reference(tree, types, auction));

  // The premium bound of Sec. 7-C holds on this adversarial shape too.
  const double premium = solicitation_premium(prod, auction);
  double total_auction = 0.0;
  for (double p : auction) total_auction += p;
  EXPECT_GE(premium, 0.0);
  EXPECT_LE(premium, total_auction);
}

}  // namespace
}  // namespace rit::core
