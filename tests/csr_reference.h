// Reference CSR for the graph equivalence tests (graph_test, scale_test).
//
// graph::Graph builds its CSR with a counting sort by source plus a
// per-bucket sort and dedup. The reference below is the comparison sort of
// the whole edge list by (from, to) followed by std::unique that the
// constructor used before; the two must agree on every out-neighbour list,
// every in-degree and the full edge list.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace rit::graph::reference {

/// Sort + unique by (from, to): the reference edge order.
inline std::vector<Edge> sort_unique_reference(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

/// Builds Graph(n, edges) and checks it against the reference CSR.
inline void expect_csr_matches_reference(std::uint32_t n,
                                         const std::vector<Edge>& edges) {
  const Graph g(n, edges);
  const std::vector<Edge> ref = sort_unique_reference(edges);
  std::vector<std::size_t> in_degree(n, 0);
  for (const Edge& e : ref) ++in_degree[e.to];

  ASSERT_EQ(g.num_nodes(), n);
  ASSERT_EQ(g.num_edges(), ref.size());
  ASSERT_EQ(g.edges(), ref);
  std::size_t i = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    std::vector<std::uint32_t> bucket;
    for (; i < ref.size() && ref[i].from == u; ++i) bucket.push_back(ref[i].to);
    const auto nbrs = g.out_neighbors(u);
    ASSERT_TRUE(std::equal(nbrs.begin(), nbrs.end(), bucket.begin(),
                           bucket.end()))
        << "out_neighbors(" << u << ")";
    ASSERT_EQ(g.in_degree(u), in_degree[u]) << "in_degree(" << u << ")";
  }
}

/// `edges` in reversed order with every third edge repeated: unsorted,
/// duplicated input for the per-bucket sort and dedup.
inline std::vector<Edge> scrambled_with_duplicates(
    const std::vector<Edge>& edges) {
  std::vector<Edge> out(edges.rbegin(), edges.rend());
  for (std::size_t i = 0; i < edges.size(); i += 3) out.push_back(edges[i]);
  return out;
}

}  // namespace rit::graph::reference
