// Bit-identity at scale (ctest -L scale).
//
// The forest builders are pinned against their references on instances big
// enough for dense BFS waves (the bitmap wave order) and against the graph
// BFS for the Barabási–Albert forest built during the draws. The payment
// pass and a full simulated trial must be bit-identical at any
// intra_threads setting. The serial graph CSR build is checked here at
// scale against its sort + unique reference.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/payment.h"
#include "core/rit.h"
#include "csr_reference.h"
#include "forest_reference.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "rng/rng.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "tree/builders.h"

namespace rit {
namespace {

const unsigned kThreadMatrix[] = {1, 2, 8};

void expect_doubles_identical(const std::vector<double>& a,
                              const std::vector<double>& b,
                              const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

TEST(ScaleIdentity, GraphCsrMatchesSortUniqueReference) {
  // ~90k edges, fed back reversed and partly duplicated: the counting-sort
  // CSR must equal the comparison sort + unique at scale.
  const std::uint32_t n = 30000;
  rng::Rng rng(21);
  const graph::Graph g = graph::barabasi_albert(n, 3, rng);
  ASSERT_GE(g.num_edges(), 1u << 16);
  const std::vector<graph::Edge> input =
      graph::reference::scrambled_with_duplicates(g.edges());
  graph::reference::expect_csr_matches_reference(n, input);
  EXPECT_EQ(graph::reference::sort_unique_reference(input), g.edges());
}

TEST(ScaleIdentity, SpanningForestMatchesSortedReference) {
  // Dense BFS waves at scale take the bitmap wave order; it must equal a
  // comparison sort on every wave.
  const std::uint32_t n = 50000;
  rng::Rng rng(22);
  const graph::Graph g = graph::barabasi_albert(n, 3, rng);
  tree::SpanningForestOptions opts;
  opts.seeds = {0, 1, 2, 3, 4};
  tree::reference::expect_forest_matches_reference(g, opts);
}

TEST(ScaleIdentity, CappedForestMatchesSortedReference) {
  // max_users cuts a wave mid-append: the un-marking of cut-off candidates
  // must also match the reference.
  const std::uint32_t n = 40000;
  rng::Rng rng(23);
  const graph::Graph g = graph::barabasi_albert(n, 3, rng);
  tree::SpanningForestOptions opts;
  opts.seeds = {0, 1, 2};
  opts.max_users = n / 2;
  opts.attach_unreached_to_root = false;
  tree::reference::expect_forest_matches_reference(g, opts);
}

TEST(ScaleIdentity, BarabasiAlbertForestMatchesGraphBfs) {
  // The trial path's forest, built during the draws, against the generic
  // graph + BFS path at 300k users with the paper defaults.
  tree::reference::expect_ba_forest_matches_bfs(300000, 3, {10}, 25);
}

TEST(ScaleIdentity, PaymentPassIdenticalAcrossThreads) {
  const std::uint32_t n = 100000;
  rng::Rng rng(24);
  const auto tree = tree::random_recursive_tree(n, 0.05, rng);
  std::vector<TaskType> types(n);
  std::vector<double> auction(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    types[i] = TaskType{static_cast<std::uint32_t>(rng.uniform_index(10))};
    auction[i] = rng.bernoulli(0.3) ? rng.uniform01() * 10.0 : 0.0;
  }
  core::PaymentWorkspace serial_ws;
  std::vector<double> serial;
  core::tree_payments_into(tree, types, auction, 0.5, 1, serial_ws, serial);
  for (unsigned t : kThreadMatrix) {
    core::PaymentWorkspace ws;
    std::vector<double> out;
    core::tree_payments_into(tree, types, auction, 0.5, t, ws, out);
    expect_doubles_identical(out, serial, "payment");
  }
}

TEST(ScaleIdentity, FullTrialIdenticalAcrossThreads) {
  // End-to-end: the mechanism takes intra_threads from its config;
  // allocation and payments must come out bit-identical.
  sim::Scenario base;
  base.num_users = 30000;
  base.tasks_per_type = 150;
  base.seed = 7;
  base.mechanism.round_budget_policy =
      core::RoundBudgetPolicy::kRunToCompletion;

  base.mechanism.intra_threads = 1;
  const sim::TrialInstance ref_inst = sim::make_instance(base, 0);
  rng::Rng ref_rng(ref_inst.mechanism_seed);
  const core::RitResult ref =
      core::run_rit(ref_inst.job, ref_inst.population.truthful_asks,
                    ref_inst.tree, base.mechanism, ref_rng);

  for (unsigned t : kThreadMatrix) {
    sim::Scenario s = base;
    s.mechanism.intra_threads = t;
    const sim::TrialInstance inst = sim::make_instance(s, 0);
    EXPECT_EQ(inst.tree.parents(), ref_inst.tree.parents())
        << "threads=" << t;
    EXPECT_EQ(inst.mechanism_seed, ref_inst.mechanism_seed);
    rng::Rng mech_rng(inst.mechanism_seed);
    const core::RitResult got =
        core::run_rit(inst.job, inst.population.truthful_asks, inst.tree,
                      s.mechanism, mech_rng);
    EXPECT_EQ(got.success, ref.success) << "threads=" << t;
    EXPECT_EQ(got.allocation, ref.allocation) << "threads=" << t;
    expect_doubles_identical(got.auction_payment, ref.auction_payment,
                             "auction_payment");
    expect_doubles_identical(got.payment, ref.payment, "payment");
  }
}

}  // namespace
}  // namespace rit
