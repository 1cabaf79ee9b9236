// Synthetic social-graph generators.
//
// Each randomized generator draws its edge list from a single sequential
// RNG stream (edge draws are order-dependent, so the drawing loop cannot be
// split across workers without changing the graph), then hands it to Graph's
// linear-time CSR build. Barabási–Albert, Erdős–Rényi, star and path emit
// each source's targets in ascending order, so the build skips their
// per-bucket sort.
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

#include "graph/graph.h"
#include "rng/rng.h"

namespace rit::graph {

/// Barabási–Albert preferential attachment. Each new node attaches
/// `edges_per_node` out-edges *from* existing high-degree nodes *to* itself
/// (an influencer recruits the newcomer). Node 0..edges_per_node form a seed
/// clique. Requires num_nodes > edges_per_node >= 1.
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
