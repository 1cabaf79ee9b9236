// Reference forests for the incentive-tree equivalence tests (tree_test,
// scale_test).
//
// tree::build_spanning_forest orders each BFS wave through a bitmap when
// the wave is dense; sorted_wave_forest below is the serial Sec. 7-A
// forest with a comparison sort on every wave, which the builder must
// reproduce exactly. expect_ba_forest_matches_bfs holds
// tree::barabasi_albert_forest to the generic trial path for a
// Barabási–Albert scenario (sim::generate_graph + sim::generate_tree), bit
// for bit, without a graph.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "graph/graph.h"
#include "rng/rng.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "tree/builders.h"

namespace rit::tree::reference {

struct ReferenceForest {
  std::vector<std::uint32_t> parents;
  std::vector<std::uint32_t> graph_of;
  std::vector<bool> joined;
};

/// The serial Sec. 7-A forest with a comparison sort on every BFS wave.
inline ReferenceForest sorted_wave_forest(const graph::Graph& g,
                                          const SpanningForestOptions& opts) {
  const std::uint32_t n = g.num_nodes();
  const std::uint32_t cap = opts.max_users.value_or(n);
  constexpr std::uint32_t kUnset = 0xffffffffu;
  constexpr std::uint32_t kRoot = 0xfffffffeu;
  std::vector<std::uint32_t> inviter(n, kUnset);
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> wave;
  for (std::uint32_t s : opts.seeds) {
    if (inviter[s] != kUnset) continue;
    inviter[s] = kRoot;
    wave.push_back(s);
  }
  std::sort(wave.begin(), wave.end());
  for (std::uint32_t s : wave) {
    if (order.size() < cap) order.push_back(s);
  }
  while (!wave.empty() && order.size() < cap) {
    std::vector<std::uint32_t> next;
    for (std::uint32_t u : wave) {
      for (std::uint32_t v : g.out_neighbors(u)) {
        if (inviter[v] != kUnset) continue;
        inviter[v] = u;
        next.push_back(v);
      }
    }
    std::sort(next.begin(), next.end());
    wave.clear();
    for (std::uint32_t v : next) {
      if (order.size() < cap) {
        order.push_back(v);
        wave.push_back(v);
      } else {
        inviter[v] = kUnset;
      }
    }
  }
  if (opts.attach_unreached_to_root) {
    for (std::uint32_t u = 0; u < n && order.size() < cap; ++u) {
      if (inviter[u] == kUnset) {
        inviter[u] = kRoot;
        order.push_back(u);
      }
    }
  }
  ReferenceForest ref;
  ref.joined.assign(n, false);
  std::vector<std::uint32_t> node_of(n, 0);
  ref.graph_of.assign(order.size() + 1, 0);
  ref.parents.assign(order.size() + 1, 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    ref.joined[order[i]] = true;
    node_of[order[i]] = i + 1;
    ref.graph_of[i + 1] = order[i];
  }
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    const std::uint32_t by = inviter[order[i]];
    ref.parents[i + 1] = by == kRoot ? 0 : node_of[by];
  }
  return ref;
}

/// build_spanning_forest(g, opts) must equal the sorted-wave reference.
inline void expect_forest_matches_reference(const graph::Graph& g,
                                            const SpanningForestOptions& opts) {
  const SpanningForestResult got = build_spanning_forest(g, opts);
  const ReferenceForest ref = sorted_wave_forest(g, opts);
  EXPECT_EQ(got.tree.parents(), ref.parents);
  EXPECT_EQ(got.graph_of, ref.graph_of);
  EXPECT_EQ(got.joined, ref.joined);
}

/// barabasi_albert_forest on Rng(graph_seed) must equal the generic trial
/// path on a BA(n, m) scenario, generate_graph then generate_tree on the
/// same stream, for each rule in `initial_joiners`, and leave the stream
/// where the graph draw leaves it. The rule only steers the BFS, so the
/// reference graph is drawn once for all of them.
inline void expect_ba_forest_matches_bfs(
    std::uint32_t n, std::uint32_t m,
    std::initializer_list<std::uint32_t> initial_joiners,
    std::uint64_t graph_seed) {
  sim::Scenario s;
  s.graph = sim::GraphKind::kBarabasiAlbert;
  s.num_users = n;
  s.ba_edges_per_node = m;
  rng::Rng ref_rng(graph_seed);
  const graph::Graph g = sim::generate_graph(s, ref_rng);
  const std::uint64_t next_draw = ref_rng.next_u64();
  for (const std::uint32_t joiners : initial_joiners) {
    s.initial_joiners = joiners;
    rng::Rng rng(graph_seed);
    const IncentiveTree got = barabasi_albert_forest(n, m, joiners, rng);
    EXPECT_EQ(got.parents(), sim::generate_tree(s, g).parents())
        << "n=" << n << " m=" << m << " initial_joiners=" << joiners
        << " seed=" << graph_seed;
    EXPECT_EQ(rng.next_u64(), next_draw) << "stream position";
  }
}

}  // namespace rit::tree::reference
