#include "sim/workload.h"

#include <numeric>

#include "common/check.h"
#include "graph/generators.h"
#include "obs/obs.h"
#include "tree/builders.h"

namespace rit::sim {

Population generate_population(const Scenario& scenario, rng::Rng& rng) {
  RIT_TRACE_SPAN("population.generate");
  RIT_CHECK(scenario.num_users > 0);
  RIT_CHECK(scenario.num_types > 0);
  RIT_CHECK(scenario.k_max >= 1);
  RIT_CHECK(scenario.cost_max > 0.0);
  Population pop;
  pop.truthful_asks.reserve(scenario.num_users);
  pop.costs.reserve(scenario.num_users);
  for (std::uint32_t j = 0; j < scenario.num_users; ++j) {
    const TaskType type{
        static_cast<std::uint32_t>(rng.uniform_index(scenario.num_types))};
    const auto quantity = static_cast<std::uint32_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(scenario.k_max)));
    const double cost = rng.uniform_real_left_open(0.0, scenario.cost_max);
    pop.truthful_asks.push_back(core::Ask{type, quantity, cost});
    pop.costs.push_back(cost);
  }
  return pop;
}

core::Job generate_job(const Scenario& scenario, rng::Rng& rng) {
  RIT_TRACE_SPAN("job.generate");
  std::vector<std::uint32_t> demand(scenario.num_types);
  if (scenario.demand_hi > 0) {
    RIT_CHECK(scenario.demand_lo < scenario.demand_hi);
    for (auto& d : demand) {
      d = static_cast<std::uint32_t>(
          rng.uniform_int(scenario.demand_lo + 1, scenario.demand_hi));
    }
  } else {
    RIT_CHECK(scenario.tasks_per_type > 0);
    std::fill(demand.begin(), demand.end(), scenario.tasks_per_type);
  }
  return core::Job(std::move(demand));
}

graph::Graph generate_graph(const Scenario& scenario, rng::Rng& rng) {
  RIT_TRACE_SPAN("graph.generate");
  const std::uint32_t n = scenario.num_users;
  switch (scenario.graph) {
    case GraphKind::kBarabasiAlbert:
      return graph::barabasi_albert(n, scenario.ba_edges_per_node, rng);
    case GraphKind::kErdosRenyi: {
      const double p =
          n > 1 ? std::min(1.0, scenario.er_degree / (n - 1)) : 0.0;
      return graph::erdos_renyi(n, p, rng);
    }
    case GraphKind::kWattsStrogatz:
      return graph::watts_strogatz(n, scenario.ws_k, scenario.ws_beta, rng);
    case GraphKind::kConfigurationModel:
      return graph::configuration_model(
          n, scenario.cm_exponent,
          std::min(scenario.cm_max_degree, n - 1), rng);
    case GraphKind::kStar:
      return graph::star(n);
    case GraphKind::kPath:
      return graph::path(n);
  }
  RIT_CHECK_MSG(false, "unhandled graph kind");
  return graph::star(1);  // unreachable
}

tree::IncentiveTree generate_tree(const Scenario& scenario,
                                  const graph::Graph& g) {
  tree::SpanningForestOptions opts;
  opts.seeds.resize(
      tree::initial_seed_count(scenario.initial_joiners, g.num_nodes()));
  std::iota(opts.seeds.begin(), opts.seeds.end(), 0u);
  opts.attach_unreached_to_root = true;
  tree::SpanningForestResult forest = tree::build_spanning_forest(g, opts);
  RIT_CHECK_MSG(forest.tree.num_participants() == g.num_nodes(),
                "expected every user to join the tree");
  return std::move(forest.tree);
}

}  // namespace rit::sim
