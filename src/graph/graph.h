// Directed social graph in compressed-sparse-row form.
//
// Semantics follow Sec. 7-A of the paper: an edge u -> v means "u has
// influence over v" (v follows u on Twitter), i.e. u may recruit v into the
// incentive tree. The incentive-tree builder consumes out-neighbour lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace rit::graph {

/// An edge u -> v: u can solicit v.
struct Edge {
  std::uint32_t from;
  std::uint32_t to;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph from an edge list in O(V + E): a counting sort by
  /// source, then a per-bucket sort (skipped when the bucket is already
  /// ascending) and dedup. Self-loops are rejected; duplicate edges are
  /// deduplicated. Node count is `num_nodes` (edges must stay in range).
  /// `edges` is released once scattered, before the per-bucket pass.
  Graph(std::uint32_t num_nodes, std::vector<Edge> edges);

  std::uint32_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return targets_.size(); }

  /// Out-neighbours of `u` (the users `u` can recruit), sorted ascending.
  std::span<const std::uint32_t> out_neighbors(std::uint32_t u) const {
    RIT_CHECK(u < num_nodes_);
    return {targets_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  std::size_t out_degree(std::uint32_t u) const {
    RIT_CHECK(u < num_nodes_);
    return offsets_[u + 1] - offsets_[u];
  }

  std::size_t in_degree(std::uint32_t u) const {
    RIT_CHECK(u < num_nodes_);
    return in_degree_[u];
  }

  bool has_edge(std::uint32_t u, std::uint32_t v) const;

  /// All edges, ordered by (from, to).
  std::vector<Edge> edges() const;

  /// Nodes with in-degree zero — nobody can recruit them, so tree builders
  /// treat them as candidates for "users who join at the very beginning".
  std::vector<std::uint32_t> sources() const;

 private:
  std::uint32_t num_nodes_{0};
  std::vector<std::size_t> offsets_{0};  // size num_nodes_+1
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> in_degree_;
};

}  // namespace rit::graph
