#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace rit::graph {

Graph barabasi_albert(std::uint32_t num_nodes, std::uint32_t edges_per_node,
                      rng::Rng& rng) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_nodes) * edges_per_node);
  // Seed clique: influence both ways.
  for (std::uint32_t u = 0; u <= edges_per_node; ++u) {
    for (std::uint32_t v = 0; v <= edges_per_node; ++v) {
      if (u != v) edges.push_back({u, v});
    }
  }
  barabasi_albert_draws(num_nodes, edges_per_node, rng,
                        [&edges](std::uint32_t v,
                                 std::span<const std::uint32_t> picked) {
                          // influencer u recruits newcomer v
                          for (std::uint32_t u : picked) edges.push_back({u, v});
                        });
  return Graph(num_nodes, std::move(edges));
}

Graph erdos_renyi(std::uint32_t num_nodes, double p, rng::Rng& rng) {
  RIT_CHECK(p >= 0.0 && p <= 1.0);
  std::vector<Edge> edges;
  if (p > 0.0 && num_nodes > 1) {
    // Iterate over the n*(n-1) ordered non-diagonal pairs with geometric
    // jumps: skip ~Geom(p) pairs between successive edges.
    const std::uint64_t total =
        static_cast<std::uint64_t>(num_nodes) * (num_nodes - 1);
    std::uint64_t idx = 0;
    const double log1mp = std::log1p(-p);
    while (true) {
      if (p < 1.0) {
        double u = 1.0 - rng.uniform01();  // (0,1]
        idx += static_cast<std::uint64_t>(std::floor(std::log(u) / log1mp));
      }
      if (idx >= total) break;
      const std::uint32_t from = static_cast<std::uint32_t>(idx / (num_nodes - 1));
      std::uint32_t to = static_cast<std::uint32_t>(idx % (num_nodes - 1));
      if (to >= from) ++to;  // skip the diagonal
      edges.push_back({from, to});
      ++idx;
    }
  }
  return Graph(num_nodes, std::move(edges));
}

Graph watts_strogatz(std::uint32_t num_nodes, std::uint32_t k, double beta,
                     rng::Rng& rng) {
  RIT_CHECK(num_nodes >= 3);
  RIT_CHECK(k >= 2 && k % 2 == 0);
  RIT_CHECK(k < num_nodes);
  RIT_CHECK(beta >= 0.0 && beta <= 1.0);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_nodes) * k);
  for (std::uint32_t u = 0; u < num_nodes; ++u) {
    for (std::uint32_t j = 1; j <= k / 2; ++j) {
      std::uint32_t v = (u + j) % num_nodes;
      if (rng.bernoulli(beta)) {
        // Rewire target uniformly, avoiding self-loop.
        do {
          v = static_cast<std::uint32_t>(rng.uniform_index(num_nodes));
        } while (v == u);
      }
      edges.push_back({u, v});
      edges.push_back({v, u});  // influence is mutual in the ring model
    }
  }
  return Graph(num_nodes, std::move(edges));
}

Graph star(std::uint32_t num_nodes) {
  RIT_CHECK(num_nodes >= 1);
  std::vector<Edge> edges;
  edges.reserve(num_nodes - 1);
  for (std::uint32_t v = 1; v < num_nodes; ++v) edges.push_back({0, v});
  return Graph(num_nodes, std::move(edges));
}

Graph path(std::uint32_t num_nodes) {
  RIT_CHECK(num_nodes >= 1);
  std::vector<Edge> edges;
  edges.reserve(num_nodes - 1);
  for (std::uint32_t v = 1; v < num_nodes; ++v) edges.push_back({v - 1, v});
  return Graph(num_nodes, std::move(edges));
}

Graph configuration_model(std::uint32_t num_nodes, double exponent,
                          std::uint32_t max_degree, rng::Rng& rng) {
  RIT_CHECK(num_nodes >= 2);
  RIT_CHECK(exponent > 1.0);
  RIT_CHECK(max_degree >= 1 && max_degree < num_nodes);
  // Zipf sampling over [1, max_degree] by inverse transform on the exact
  // (finite) normalizing weights. O(max_degree) setup, O(log) per draw.
  std::vector<double> cdf(max_degree);
  double total = 0.0;
  for (std::uint32_t d = 1; d <= max_degree; ++d) {
    total += std::pow(static_cast<double>(d), -exponent);
    cdf[d - 1] = total;
  }
  auto draw_degree = [&]() {
    const double u = rng.uniform01() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::uint32_t>(it - cdf.begin()) + 1;
  };

  std::vector<Edge> edges;
  std::vector<std::uint32_t> picked;
  for (std::uint32_t u = 0; u < num_nodes; ++u) {
    const std::uint32_t degree = draw_degree();
    picked.clear();
    std::size_t rejections = 0;
    while (picked.size() < degree) {
      std::uint32_t v = static_cast<std::uint32_t>(rng.uniform_index(num_nodes));
      const bool dup =
          v == u || std::find(picked.begin(), picked.end(), v) != picked.end();
      if (!dup) {
        picked.push_back(v);
      } else if (++rejections > 16ull * degree + 64) {
        // Deterministic sweep fallback for pathological parameter corners.
        for (std::uint32_t w = 0; w < num_nodes && picked.size() < degree;
             ++w) {
          if (w != u &&
              std::find(picked.begin(), picked.end(), w) == picked.end()) {
            picked.push_back(w);
          }
        }
      }
    }
    for (std::uint32_t v : picked) edges.push_back({u, v});
  }
  return Graph(num_nodes, std::move(edges));
}

Graph complete(std::uint32_t num_nodes) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_nodes) * (num_nodes - 1));
  for (std::uint32_t u = 0; u < num_nodes; ++u) {
    for (std::uint32_t v = 0; v < num_nodes; ++v) {
      if (u != v) edges.push_back({u, v});
    }
  }
  return Graph(num_nodes, std::move(edges));
}

}  // namespace rit::graph
