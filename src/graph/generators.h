// Synthetic social-graph generators.
//
// Each randomized generator draws its edge list from a single sequential
// RNG stream (edge draws are order-dependent, so the drawing loop cannot be
// split across workers without changing the graph), then hands it to Graph's
// linear-time CSR build. Barabási–Albert, Erdős–Rényi, star and path emit
// each source's targets in ascending order, so the build skips their
// per-bucket sort. Barabási–Albert's draw loop is also exposed on its own,
// so the trial path can build its forest without the CSR.
//
// The paper builds its incentive tree from the SNAP ego-Twitter dataset
// [21]. That dataset is not redistributable with this repository, so per
// DESIGN.md we substitute synthetic graphs. Barabási–Albert preferential
// attachment is the default: its heavy-tailed degree distribution produces
// the same shallow, bushy incentive trees a follower graph does, which is
// the property the payment-determination phase is sensitive to. The other
// families exist for the graph-sensitivity ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "graph/graph.h"
#include "rng/rng.h"

namespace rit::graph {

/// The Barabási–Albert draw loop, without the graph. Nodes
/// 0..edges_per_node form a seed clique (an edge each way between every
/// pair). Each later node v, in ascending order, draws `edges_per_node`
/// distinct influencers degree-proportionally from the nodes below it, and
/// `sink(v, picked)` receives them (a span of ids < v, in draw order) before
/// the next draw. Those picks and the clique are the graph's only edges, so
/// a consumer that needs less than the CSR (the Sec. 7-A forest of
/// tree/builders.h) can work in the same pass. Every consumer sees the same
/// draws from `rng`. Requires num_nodes > edges_per_node >= 1.
template <class Sink>
void barabasi_albert_draws(std::uint32_t num_nodes,
                           std::uint32_t edges_per_node, rng::Rng& rng,
                           Sink&& sink) {
  RIT_CHECK(edges_per_node >= 1);
  RIT_CHECK(num_nodes > edges_per_node);
  // repeated-nodes list: each endpoint appears once per incident edge, so a
  // uniform draw from its first `filled` entries is a degree-proportional
  // draw. Its final length is known, so it is allocated once, uninitialized.
  const std::uint32_t seed_n = edges_per_node + 1;
  const std::size_t clique_entries = std::size_t{seed_n} * edges_per_node;
  const auto endpoints = std::make_unique_for_overwrite<std::uint32_t[]>(
      clique_entries + 2 * std::size_t{num_nodes - seed_n} * edges_per_node);
  std::size_t filled = 0;

  // Seed clique of seed_n nodes: node u has out-degree seed_n-1.
  for (std::uint32_t u = 0; u < seed_n; ++u) {
    for (std::uint32_t k = 0; k < edges_per_node; ++k) endpoints[filled++] = u;
  }

  // Draw from a local copy of the stream, so the engine state stays in
  // registers; `rng` gets it back at the end, after exactly the same draws.
  // The picks live in one buffer of edges_per_node slots: a draw is always
  // written to the next free slot and counted only if it is new.
  rng::Rng draws = rng;
  const auto picked =
      std::make_unique_for_overwrite<std::uint32_t[]>(edges_per_node);
  std::uint32_t count = 0;
  const auto add_if_new = [&picked, &count](std::uint32_t u) {
    bool seen = false;
    for (std::uint32_t k = 0; k < count; ++k) seen |= picked[k] == u;
    picked[count] = u;
    count += seen ? 0 : 1;
  };
  for (std::uint32_t v = seed_n; v < num_nodes; ++v) {
    count = 0;
    // Draw edges_per_node distinct influencers, degree-proportionally.
    std::size_t guard = 0;
    while (count < edges_per_node) {
      add_if_new(endpoints[draws.uniform_index(filled)]);
      // Degenerate protection: with tiny seed graphs rejection can loop; fall
      // back to uniform over all existing nodes after excessive rejections.
      if (++guard > 64ull * edges_per_node && count < edges_per_node) {
        add_if_new(static_cast<std::uint32_t>(draws.uniform_index(v)));
      }
    }
    sink(v, std::span<const std::uint32_t>(picked.get(), count));
    for (std::uint32_t k = 0; k < count; ++k) {
      endpoints[filled++] = picked[k];
      endpoints[filled++] = v;
    }
  }
  rng = draws;
}

/// Barabási–Albert preferential attachment. Each new node attaches
/// `edges_per_node` out-edges *from* existing high-degree nodes *to* itself
/// (an influencer recruits the newcomer): the edge list of
/// barabasi_albert_draws, seed clique first. Requires
/// num_nodes > edges_per_node >= 1.
Graph barabasi_albert(std::uint32_t num_nodes, std::uint32_t edges_per_node,
                      rng::Rng& rng);

/// Erdős–Rényi G(n, p) digraph (each ordered pair independently with
/// probability p, no self-loops). Uses geometric skipping, O(E) expected.
Graph erdos_renyi(std::uint32_t num_nodes, double p, rng::Rng& rng);

/// Watts–Strogatz small-world graph, directed variant: ring of
/// `num_nodes` nodes, each with edges to its next `k/2` neighbours in both
/// directions, each edge rewired with probability `beta`.
Graph watts_strogatz(std::uint32_t num_nodes, std::uint32_t k, double beta,
                     rng::Rng& rng);

/// Star: node 0 -> every other node. Produces a depth-2 incentive tree
/// (platform -> hub -> leaves); stress-case for solicitation rewards.
Graph star(std::uint32_t num_nodes);

/// Directed path 0 -> 1 -> ... -> n-1. Produces the deepest possible tree;
/// stress-case for the (1/2)^r discount underflow.
Graph path(std::uint32_t num_nodes);

/// Complete digraph (every ordered pair). Only sensible for tiny n.
Graph complete(std::uint32_t num_nodes);

/// Directed configuration model with a Zipf(exponent) out-degree sequence:
/// out-degrees are drawn from P(d) ~ d^-exponent over [1, max_degree],
/// then each out-stub is wired to a uniformly random distinct target
/// (self-loops and duplicate edges are re-drawn, with a deterministic
/// fallback after excessive rejections). The closest synthetic match to a
/// measured follower graph when the target degree *distribution* is known:
/// ego-Twitter's out-degree tail is roughly exponent ~2. Requires
/// num_nodes >= 2, exponent > 1, 1 <= max_degree < num_nodes.
Graph configuration_model(std::uint32_t num_nodes, double exponent,
                          std::uint32_t max_degree, rng::Rng& rng);

}  // namespace rit::graph
