// Workload generation: populations of truthful users, jobs, and incentive
// trees drawn according to a Scenario.
#pragma once

#include <vector>

#include "core/types.h"
#include "graph/graph.h"
#include "rng/rng.h"
#include "sim/scenario.h"
#include "tree/incentive_tree.h"

namespace rit::sim {

/// A generated user population. Truthful asks carry (t_j, K_j, c_j); the
/// private costs are kept alongside for utility computation.
struct Population {
  std::vector<core::Ask> truthful_asks;
  std::vector<double> costs;  // c_j

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(costs.size());
  }
};

/// Draws n users per Sec. 7-A: type uniform over num_types, quantity
/// uniform over {1..k_max}, cost uniform over (0, cost_max].
Population generate_population(const Scenario& scenario, rng::Rng& rng);

/// Draws the job: fixed per-type demand, or per-type uniform over
/// (demand_lo, demand_hi] when demand_hi > 0.
core::Job generate_job(const Scenario& scenario, rng::Rng& rng);

/// Generates the social graph of the scenario's GraphKind.
graph::Graph generate_graph(const Scenario& scenario, rng::Rng& rng);

/// Builds the incentive tree: spanning forest of `g` seeded by the
/// scenario's initial joiners, unreached users attached to the platform
/// (every user participates, as in the paper's simulations).
///
/// For Barabási–Albert, make_instance (sim/runner.h) calls neither this nor
/// generate_graph: tree::barabasi_albert_forest builds the same tree, bit
/// for bit, from the same graph stream without the graph. Both stay the
/// path for the other kinds, the graph metrics and the reference the
/// forest is pinned against (tree_test, scale_test).
tree::IncentiveTree generate_tree(const Scenario& scenario,
                                  const graph::Graph& g);

}  // namespace rit::sim
