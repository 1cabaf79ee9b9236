// Incentive-tree builders.
//
// The primary builder reproduces Sec. 7-A exactly: a BFS spanning forest of
// the social graph in which every joined user refers all of its un-joined
// (out-)neighbours, simultaneous invitations are broken toward the smallest
// inviter index, and the forest roots hang off the platform root. Growth
// stops once the threshold N of Sec. 3-A is reached. For a Barabási–Albert
// graph the same forest is computed while the graph is drawn
// (barabasi_albert_forest), without ever building the graph.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "rng/rng.h"
#include "tree/incentive_tree.h"

namespace rit::tree {

struct SpanningForestOptions {
  /// Graph nodes that join at the very beginning (children of the platform).
  /// Must be non-empty.
  std::vector<std::uint32_t> seeds;
  /// Solicitation stops once this many users have joined (the paper's N).
  /// Default: everyone reachable.
  std::optional<std::uint32_t> max_users;
  /// If true, graph nodes unreachable from the seeds (and not cut off by
  /// max_users) are attached directly to the platform root, modelling users
  /// who discover the job independently. Keeps participant count == graph
  /// node count, which the simulation scenarios rely on.
  bool attach_unreached_to_root = true;
};

struct SpanningForestResult {
  IncentiveTree tree;
  /// joined[u]: whether graph node u is a participant.
  std::vector<bool> joined;
  /// node_of[u]: tree node of graph node u (0 if not joined).
  std::vector<std::uint32_t> node_of;
  /// graph_of[node]: graph node of tree node (root slot unused).
  std::vector<std::uint32_t> graph_of;
};

/// Builds the Sec. 7-A tree. Tree node ids are assigned in join order
/// (BFS wave by wave, ascending graph id within a wave), so participant i is
/// the (i+1)-th user to join.
SpanningForestResult build_spanning_forest(const graph::Graph& g,
                                           const SpanningForestOptions& opts);

/// How many lowest-id graph nodes seed the simulations' forest:
/// min(max(initial_joiners, 1), num_nodes). One rule for both trial paths.
std::uint32_t initial_seed_count(std::uint32_t initial_joiners,
                                 std::uint32_t num_nodes);

/// The Sec. 7-A forest of graph::barabasi_albert(num_nodes, edges_per_node,
/// rng), seeded by graph nodes 0..initial_seed_count(initial_joiners)-1,
/// with no user cap and unreached users on the root: parents() equals
/// build_spanning_forest's bit for bit, and `rng` makes the same draws.
/// No graph is built. In BA every node's in-neighbours are its picks, all
/// below it, except in the seed clique 0..edges_per_node, which node 0
/// (always a seed) reaches in one hop. So the BFS is one forward pass
/// during the draws: a seed has depth 0, a non-seed clique node depth 1 via
/// node 0, and any other node 1 + the least depth among its picks, invited
/// by the smallest pick at that depth (the waves' smallest-inviter
/// tie-break). The join order, wave by wave and ascending id within a wave,
/// is then a stable counting sort by depth. Spans: graph.generate (draws
/// and depths), tree.build (join order, relabel, IncentiveTree).
IncentiveTree barabasi_albert_forest(std::uint32_t num_nodes,
                                     std::uint32_t edges_per_node,
                                     std::uint32_t initial_joiners,
                                     rng::Rng& rng);

/// Uniform random recursive tree over `num_participants` users: participant
/// i attaches to the platform root with probability `root_prob`, otherwise
/// to a uniformly random earlier participant. Used by tests and by scenarios
/// that do not model an explicit social graph.
IncentiveTree random_recursive_tree(std::uint32_t num_participants,
                                    double root_prob, rng::Rng& rng);

/// All participants directly under the platform root (an auction with no
/// solicitation structure); RIT then degenerates to its auction phase plus
/// zero tree rewards, which tests exploit.
IncentiveTree flat_tree(std::uint32_t num_participants);

/// Single chain: root -> p0 -> p1 -> ... Deepest possible tree.
IncentiveTree chain_tree(std::uint32_t num_participants);

}  // namespace rit::tree
