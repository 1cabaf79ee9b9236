#include "graph/graph.h"

#include <algorithm>

namespace rit::graph {

Graph::Graph(std::uint32_t num_nodes, std::vector<Edge> edges)
    : num_nodes_(num_nodes) {
  // Counting sort by source: count out-degrees, then prefix-sum them into
  // bucket starts.
  offsets_.assign(std::size_t{num_nodes_} + 1, 0);
  for (const Edge& e : edges) {
    RIT_CHECK_MSG(e.from < num_nodes && e.to < num_nodes,
                  "edge (" << e.from << "," << e.to << ") out of range for "
                           << num_nodes << " nodes");
    RIT_CHECK_MSG(e.from != e.to, "self-loop at node " << e.from);
    ++offsets_[e.from + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  // Scatter with offsets_[from] as the bucket cursor: afterwards offsets_[u]
  // holds the end of bucket u, so shifting by one restores the starts.
  targets_.resize(edges.size());
  for (const Edge& e : edges) targets_[offsets_[e.from]++] = e.to;
  std::vector<Edge>().swap(edges);
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;

  // Sort and deduplicate each bucket, compacting in place. Generators emit
  // most buckets already ascending, so the sort is usually skipped.
  std::uint32_t* const t = targets_.data();
  std::size_t write = 0;
  for (std::uint32_t u = 0; u < num_nodes_; ++u) {
    std::uint32_t* const begin = t + offsets_[u];
    std::uint32_t* const end = t + offsets_[u + 1];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
    std::uint32_t* const last = std::unique(begin, end);
    offsets_[u] = write;
    write = static_cast<std::size_t>(std::move(begin, last, t + write) - t);
  }
  offsets_[num_nodes_] = write;
  targets_.resize(write);
  targets_.shrink_to_fit();

  in_degree_.assign(num_nodes_, 0);
  for (std::uint32_t v : targets_) ++in_degree_[v];
}

bool Graph::has_edge(std::uint32_t u, std::uint32_t v) const {
  auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (std::uint32_t u = 0; u < num_nodes_; ++u) {
    for (std::uint32_t v : out_neighbors(u)) out.push_back({u, v});
  }
  return out;
}

std::vector<std::uint32_t> Graph::sources() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t u = 0; u < num_nodes_; ++u) {
    if (in_degree_[u] == 0) out.push_back(u);
  }
  return out;
}

}  // namespace rit::graph
