#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "common/check.h"
#include "forest_reference.h"
#include "graph/generators.h"
#include "tree/builders.h"
#include "tree/incentive_tree.h"
#include "tree/render.h"

namespace rit::tree {
namespace {

using reference::expect_ba_forest_matches_bfs;
using reference::expect_forest_matches_reference;

// The running example: platform -> {P1, P2}, P1 -> {P3, P4}, P4 -> {P5}.
IncentiveTree example_tree() {
  //          node: 0  1  2  3  4  5
  return IncentiveTree({0, 0, 0, 1, 1, 4});
}

TEST(IncentiveTree, RootOnly) {
  const auto t = IncentiveTree::root_only();
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_participants(), 0u);
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_TRUE(t.children(0).empty());
}

TEST(IncentiveTree, ParentsChildrenDepths) {
  const auto t = example_tree();
  EXPECT_EQ(t.num_participants(), 5u);
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_EQ(t.parent(5), 4u);
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_EQ(t.depth(1), 1u);
  EXPECT_EQ(t.depth(3), 2u);
  EXPECT_EQ(t.depth(5), 3u);
  EXPECT_EQ(t.max_depth(), 3u);
  const auto kids = t.children(1);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0], 3u);
  EXPECT_EQ(kids[1], 4u);
}

TEST(IncentiveTree, PreorderSubtreesAreContiguous) {
  const auto t = example_tree();
  const auto pre = t.preorder();
  ASSERT_EQ(pre.size(), 6u);
  EXPECT_EQ(pre[0], 0u);
  // Every node's subtree occupies [pos, pos + size).
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    const auto begin = t.preorder_index(v);
    const auto size = t.subtree_size(v);
    std::set<std::uint32_t> range(pre.begin() + begin,
                                  pre.begin() + begin + size);
    std::set<std::uint32_t> expected{v};
    for (std::uint32_t d : t.descendants(v)) expected.insert(d);
    EXPECT_EQ(range, expected) << "node " << v;
  }
}

TEST(IncentiveTree, SubtreeSizes) {
  const auto t = example_tree();
  EXPECT_EQ(t.subtree_size(0), 6u);
  EXPECT_EQ(t.subtree_size(1), 4u);
  EXPECT_EQ(t.subtree_size(4), 2u);
  EXPECT_EQ(t.subtree_size(5), 1u);
}

TEST(IncentiveTree, DescendantsMatchDefinition) {
  const auto t = example_tree();
  auto d1 = t.descendants(1);
  std::sort(d1.begin(), d1.end());
  EXPECT_EQ(d1, (std::vector<std::uint32_t>{3, 4, 5}));
  EXPECT_TRUE(t.descendants(2).empty());
}

TEST(IncentiveTree, IsAncestor) {
  const auto t = example_tree();
  EXPECT_TRUE(t.is_ancestor(0, 5));
  EXPECT_TRUE(t.is_ancestor(1, 5));
  EXPECT_TRUE(t.is_ancestor(4, 5));
  EXPECT_FALSE(t.is_ancestor(5, 4));
  EXPECT_FALSE(t.is_ancestor(2, 3));
  EXPECT_FALSE(t.is_ancestor(3, 3));
}

TEST(IncentiveTree, ForwardReferencingParentsAllowed) {
  // Node 1's parent is node 3 — ids need not be topologically ordered.
  const IncentiveTree t({0, 3, 0, 2});
  EXPECT_EQ(t.depth(1), 3u);
  EXPECT_EQ(t.depth(3), 2u);
}

TEST(IncentiveTree, RejectsCycles) {
  // 1 -> 2 -> 1 cycle, disconnected from the root.
  EXPECT_THROW(IncentiveTree({0, 2, 1}), CheckFailure);
}

TEST(IncentiveTree, RejectsSelfParentAndOutOfRange) {
  EXPECT_THROW(IncentiveTree({0, 1}), CheckFailure);
  EXPECT_THROW(IncentiveTree({0, 9}), CheckFailure);
}

TEST(IncentiveTree, ParticipantNodeConversion) {
  EXPECT_EQ(node_of_participant(0), 1u);
  EXPECT_EQ(participant_of_node(1), 0u);
  EXPECT_EQ(participant_of_node(node_of_participant(41)), 41u);
}

TEST(Builders, FlatTreeAllDepthOne) {
  const auto t = flat_tree(10);
  EXPECT_EQ(t.num_participants(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(t.depth(node_of_participant(i)), 1u);
  }
}

TEST(Builders, ChainTreeDepths) {
  const auto t = chain_tree(5);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.depth(node_of_participant(i)), i + 1);
  }
  EXPECT_EQ(t.max_depth(), 5u);
}

TEST(Builders, RandomRecursiveTreeIsValidAndDeterministic) {
  rng::Rng a(5);
  rng::Rng b(5);
  const auto ta = random_recursive_tree(200, 0.1, a);
  const auto tb = random_recursive_tree(200, 0.1, b);
  EXPECT_EQ(ta.parents(), tb.parents());
  EXPECT_EQ(ta.num_participants(), 200u);
}

TEST(Builders, SpanningForestBfsStructure) {
  // 0 -> 1 -> 3, 0 -> 2, 2 -> 3 (tie at 3 broken toward inviter 1: both
  // invite in wave 2? No: 1 and 2 join in wave 1 from seed 0, then both
  // could invite 3 — the smaller-index inviter 1 wins).
  graph::Graph g(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  SpanningForestOptions opts;
  opts.seeds = {0};
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 4u);
  // Join order: 0, then {1,2}, then {3}.
  EXPECT_EQ(res.graph_of[1], 0u);
  EXPECT_EQ(res.graph_of[2], 1u);
  EXPECT_EQ(res.graph_of[3], 2u);
  EXPECT_EQ(res.graph_of[4], 3u);
  EXPECT_EQ(res.tree.parent(res.node_of[3]), res.node_of[1]);  // 1 beat 2
  EXPECT_EQ(res.tree.parent(res.node_of[1]), res.node_of[0]);
  EXPECT_EQ(res.tree.parent(res.node_of[0]), 0u);
}

TEST(Builders, SpanningForestTieBreakSmallestInviter) {
  // Seeds 0 and 1 both invite node 2 in the same wave; 0 must win.
  graph::Graph g(3, {{0, 2}, {1, 2}});
  SpanningForestOptions opts;
  opts.seeds = {1, 0};  // deliberately unsorted
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.parent(res.node_of[2]), res.node_of[0]);
}

TEST(Builders, SpanningForestRespectsMaxUsers) {
  graph::Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  SpanningForestOptions opts;
  opts.seeds = {0};
  opts.max_users = 3;
  opts.attach_unreached_to_root = false;
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 3u);
  EXPECT_TRUE(res.joined[0]);
  EXPECT_TRUE(res.joined[2]);
  EXPECT_FALSE(res.joined[3]);
}

TEST(Builders, SpanningForestAttachesUnreachedToRoot) {
  // Node 2 is unreachable from seed 0.
  graph::Graph g(3, {{0, 1}});
  SpanningForestOptions opts;
  opts.seeds = {0};
  opts.attach_unreached_to_root = true;
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 3u);
  EXPECT_TRUE(res.joined[2]);
  EXPECT_EQ(res.tree.parent(res.node_of[2]), 0u);
  EXPECT_EQ(res.tree.depth(res.node_of[2]), 1u);
}

TEST(Builders, SpanningForestCoversBaGraph) {
  rng::Rng rng(9);
  const auto g = graph::barabasi_albert(1000, 3, rng);
  SpanningForestOptions opts;
  opts.seeds = {0, 1, 2, 3};
  const auto res = build_spanning_forest(g, opts);
  EXPECT_EQ(res.tree.num_participants(), 1000u);
  // A scale-free graph explored from the seed clique should be shallow.
  EXPECT_LT(res.tree.max_depth(), 30u);
}

TEST(SpanningForest, WaveOrderMatchesSortedReference) {
  rng::Rng rng(14);
  const graph::Graph ba = graph::barabasi_albert(20000, 3, rng);
  SpanningForestOptions opts;
  opts.seeds = {4, 0, 2};
  {
    SCOPED_TRACE("BA, dense waves");
    expect_forest_matches_reference(ba, opts);
  }
  {
    SCOPED_TRACE("BA, max_users cuts a dense wave");
    opts.max_users = 9000;
    opts.attach_unreached_to_root = false;
    expect_forest_matches_reference(ba, opts);
    // The cut lands inside a wave big enough for the bitmap branch.
    const SpanningForestResult capped = build_spanning_forest(ba, opts);
    ASSERT_EQ(capped.tree.num_participants(), 9000u);
    const std::uint32_t last = capped.graph_of.back();
    const std::uint32_t depth = capped.tree.depth(capped.node_of[last]);
    std::size_t wave_joined = 0;
    for (std::uint32_t node = 1; node < capped.graph_of.size(); ++node) {
      if (capped.tree.depth(node) == depth) ++wave_joined;
    }
    EXPECT_GE(wave_joined, 20000u / 64);
  }
  SpanningForestOptions chain;
  chain.seeds = {0};
  {
    SCOPED_TRACE("path: one claim per wave");
    expect_forest_matches_reference(graph::path(5000), chain);
  }
  {
    SCOPED_TRACE("star: one wave of n-1 claims");
    expect_forest_matches_reference(graph::star(5000), chain);
    chain.max_users = 1234;
    expect_forest_matches_reference(graph::star(5000), chain);
  }
}

TEST(BarabasiAlbertForest, MatchesGraphBfsOnMatrix) {
  // The forest built during the draws against generate_graph +
  // generate_tree: every size from the bare clique up, every initial_joiners
  // rule branch (0 -> 1 seed, seeds inside, equal to and beyond the clique,
  // more than n), two seeds by two trials of the graph stream. Each graph
  // is drawn once and serves all six rules.
  const std::uint32_t edges_per_node[] = {1, 2, 3, 5};
  for (std::uint32_t m : edges_per_node) {
    const std::uint32_t sizes[] = {m + 1, m + 2, 12, 500, 5000, 80000};
    for (std::uint32_t n : sizes) {
      for (std::uint64_t seed : {3u, 8u}) {
        for (std::uint64_t trial = 0; trial < 2; ++trial) {
          expect_ba_forest_matches_bfs(n, m, {0, 1, 2, m + 1, 10, n + 7},
                                       seed * 1000003u + trial);
        }
      }
    }
  }
}

TEST(BarabasiAlbertForest, SeedCountRule) {
  EXPECT_EQ(initial_seed_count(0, 50), 1u);
  EXPECT_EQ(initial_seed_count(10, 50), 10u);
  EXPECT_EQ(initial_seed_count(60, 50), 50u);
}

// The layout the constructor must produce, by the textbook route: child
// lists in ascending id, a stack DFS that visits them in that order, and
// subtree sizes summed in reverse preorder.
struct ReferenceLayout {
  std::vector<std::vector<std::uint32_t>> children;
  std::vector<std::uint32_t> depth;
  std::vector<std::uint32_t> subtree_size;
  std::vector<std::uint32_t> preorder;
  std::vector<std::uint32_t> preorder_index;
  std::uint32_t max_depth{0};
};

ReferenceLayout dfs_reference(const std::vector<std::uint32_t>& parents) {
  const auto n = static_cast<std::uint32_t>(parents.size());
  ReferenceLayout ref;
  ref.children.resize(n);
  for (std::uint32_t v = 1; v < n; ++v) ref.children[parents[v]].push_back(v);
  ref.depth.assign(n, 0);
  ref.preorder_index.assign(n, 0);
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    ref.preorder_index[v] = static_cast<std::uint32_t>(ref.preorder.size());
    ref.preorder.push_back(v);
    const auto& kids = ref.children[v];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      ref.depth[*it] = ref.depth[v] + 1;
      stack.push_back(*it);
    }
  }
  ref.subtree_size.assign(n, 1);
  for (std::size_t i = ref.preorder.size(); i > 1; --i) {
    const std::uint32_t v = ref.preorder[i - 1];
    ref.subtree_size[parents[v]] += ref.subtree_size[v];
  }
  ref.max_depth = *std::max_element(ref.depth.begin(), ref.depth.end());
  return ref;
}

void expect_layout_matches_reference(const IncentiveTree& t) {
  const ReferenceLayout ref = dfs_reference(t.parents());
  ASSERT_EQ(ref.preorder.size(), t.num_nodes());
  EXPECT_EQ(t.max_depth(), ref.max_depth);
  const auto pre = t.preorder();
  ASSERT_EQ(pre.size(), ref.preorder.size());
  EXPECT_TRUE(std::equal(pre.begin(), pre.end(), ref.preorder.begin()));
  const auto sizes = t.subtree_sizes();
  ASSERT_EQ(sizes.size(), t.num_nodes());
  // descendants() copies a whole subtree: check it where the subtrees sum
  // to a few million nodes (not on a 10^5 chain).
  const std::uint64_t listed = std::accumulate(
      ref.subtree_size.begin(), ref.subtree_size.end(), std::uint64_t{0});
  for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
    ASSERT_EQ(t.depth(v), ref.depth[v]) << "node " << v;
    ASSERT_EQ(t.subtree_size(v), ref.subtree_size[v]) << "node " << v;
    ASSERT_EQ(t.preorder_index(v), ref.preorder_index[v]) << "node " << v;
    ASSERT_EQ(sizes[ref.preorder_index[v]], ref.subtree_size[v])
        << "node " << v;
    ASSERT_EQ(t.children(v), ref.children[v]) << "node " << v;
    if (listed <= 4000000) {
      const std::uint32_t begin = ref.preorder_index[v];
      ASSERT_EQ(t.descendants(v),
                std::vector<std::uint32_t>(
                    ref.preorder.begin() + begin + 1,
                    ref.preorder.begin() + begin + ref.subtree_size[v]))
          << "node " << v;
    }
  }
}

TEST(TreeLayout, MatchesDfsOnRandomRecursiveTrees) {
  for (const std::uint32_t n : {1u, 2u, 17u, 1000u, 30000u}) {
    for (const double root_prob : {0.0, 0.05, 0.5, 1.0}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << root_prob
                                        << " seed=" << seed);
        rng::Rng rng(seed);
        expect_layout_matches_reference(
            random_recursive_tree(n, root_prob, rng));
      }
    }
  }
}

TEST(TreeLayout, MatchesDfsOnBarabasiAlbertForests) {
  for (const std::uint32_t m : {1u, 2u, 3u, 5u}) {
    for (const std::uint32_t n : {m + 1, m + 2, 64u, 5000u, 40000u}) {
      for (const std::uint32_t joiners : {1u, 4u, 100u}) {
        for (const std::uint64_t seed : {5u, 6u, 7u}) {
          SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n
                                          << " joiners=" << joiners
                                          << " seed=" << seed);
          rng::Rng rng(seed);
          expect_layout_matches_reference(
              barabasi_albert_forest(n, m, joiners, rng));
        }
      }
    }
  }
}

TEST(TreeLayout, MatchesDfsOnChainFlatAndRootOnly) {
  {
    SCOPED_TRACE("chain of 10^5");
    const IncentiveTree chain = chain_tree(100000);
    EXPECT_EQ(chain.max_depth(), 100000u);
    expect_layout_matches_reference(chain);
  }
  {
    SCOPED_TRACE("flat");
    expect_layout_matches_reference(flat_tree(5000));
  }
  {
    SCOPED_TRACE("root only");
    expect_layout_matches_reference(IncentiveTree::root_only());
  }
}

TEST(TreeLayout, ForwardReferencingParentsMatchDfs) {
  // Relabel random recursive trees by a random permutation of the
  // participants, so most parents point forward: the general path must
  // give the same layout as the reference.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    rng::Rng rng(seed);
    const IncentiveTree t = random_recursive_tree(3000, 0.05, rng);
    std::vector<std::uint32_t> relabel(t.num_nodes());
    for (std::uint32_t v = 0; v < t.num_nodes(); ++v) relabel[v] = v;
    rng.shuffle(std::span<std::uint32_t>(relabel).subspan(1));
    std::vector<std::uint32_t> parents(t.num_nodes(), 0);
    for (std::uint32_t v = 1; v < t.num_nodes(); ++v) {
      parents[relabel[v]] = relabel[t.parent(v)];
    }
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const IncentiveTree relabeled(parents);
    expect_layout_matches_reference(relabeled);
    for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
      ASSERT_EQ(relabeled.depth(relabel[v]), t.depth(v));
      ASSERT_EQ(relabeled.subtree_size(relabel[v]), t.subtree_size(v));
    }
  }
}

TEST(TreeLayout, RejectsUnreachableNodes) {
  // 2 -> 3 -> 2 is a cycle, and node 1 hangs below it: neither reaches
  // the root.
  EXPECT_THROW(IncentiveTree({0, 2, 3, 2}), CheckFailure);
  // A self-parent and an out-of-range parent behind a forward reference.
  EXPECT_THROW(IncentiveTree({0, 2, 2}), CheckFailure);
  EXPECT_THROW(IncentiveTree({0, 2, 0, 7}), CheckFailure);
}

TEST(Render, AsciiShowsStructure) {
  const auto t = example_tree();
  const std::string art = render_ascii(t);
  EXPECT_NE(art.find("platform"), std::string::npos);
  EXPECT_NE(art.find("P1"), std::string::npos);
  EXPECT_NE(art.find("P5"), std::string::npos);
  // P5 is nested under P4.
  EXPECT_LT(art.find("P4"), art.find("P5"));
}

TEST(Render, TruncatesLargeTrees) {
  const auto t = flat_tree(500);
  const std::string art = render_ascii(t, {}, 10);
  EXPECT_NE(art.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace rit::tree
