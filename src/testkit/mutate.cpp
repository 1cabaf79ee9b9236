#include "testkit/mutate.h"

#include <algorithm>
#include <cmath>

#include "graph/generators.h"
#include "tree/builders.h"
#include "tree/incentive_tree.h"

namespace rit::testkit {
namespace {

using core::Ask;

double random_cluster_value(rng::Rng& rng) {
  return rng.uniform_real_left_open(0.1, 10.0);
}

/// Costs stay at or below the ask value so the Thm 1 IR invariant applies
/// to every participant the generator produces.
double random_cost_for(double value, rng::Rng& rng) {
  return value * rng.uniform_real(0.3, 1.0);
}

std::uint32_t random_quantity(const GenParams& params, rng::Rng& rng) {
  // Mostly small; an occasional heavy asker stresses Extract's expansion
  // and the K_max-driven round budget.
  if (rng.bernoulli(0.05)) {
    return 1 + static_cast<std::uint32_t>(rng.uniform_index(60));
  }
  return 1 + static_cast<std::uint32_t>(rng.uniform_index(params.max_quantity));
}

/// Tree shape families. parents[j] is the parent node of node j+1 and is
/// always <= j, so every family yields a valid tree by construction.
std::vector<std::uint32_t> random_parents(std::uint32_t n, rng::Rng& rng) {
  std::vector<std::uint32_t> parents(n, 0);
  switch (rng.uniform_index(6)) {
    case 0:  // flat: everyone under the platform
      break;
    case 1:  // chain: the deepest possible tree
      for (std::uint32_t j = 0; j < n; ++j) parents[j] = j;
      break;
    case 2:  // star: one hub, everyone else at depth 2
      for (std::uint32_t j = 1; j < n; ++j) parents[j] = 1;
      break;
    case 3: {  // comb: a spine with a tooth at every vertebra
      std::uint32_t spine = 0;
      for (std::uint32_t j = 0; j < n; ++j) {
        parents[j] = spine;
        if (j % 2 == 0) spine = j + 1;
      }
      break;
    }
    case 4:  // random recursive tree
      for (std::uint32_t j = 1; j < n; ++j) {
        parents[j] = rng.bernoulli(0.25)
                         ? 0
                         : 1 + static_cast<std::uint32_t>(rng.uniform_index(j));
      }
      break;
    default: {  // solicitation over a scale-free social graph (Sec. 7-A)
      // Barabasi-Albert needs more nodes than edges per node; clamping after
      // the draw keeps every previously valid case generating as before.
      const std::uint32_t nodes = std::max<std::uint32_t>(n, 2);
      const auto edges_per_node = std::min<std::uint32_t>(
          1 + static_cast<std::uint32_t>(rng.uniform_index(3)), nodes - 1);
      rng::Rng graph_rng = rng.split();
      const graph::Graph g =
          graph::barabasi_albert(nodes, edges_per_node, graph_rng);
      tree::SpanningForestOptions opts;
      opts.seeds = {0};
      const tree::SpanningForestResult forest =
          tree::build_spanning_forest(g, opts);
      for (std::uint32_t j = 0; j < n; ++j) {
        parents[j] = forest.tree.parents()[j + 1];
      }
      break;
    }
  }
  return parents;
}

core::RitConfig random_config(rng::Rng& rng) {
  core::RitConfig config;
  config.h = rng.uniform_real(0.2, 0.9);
  config.discount_base = rng.uniform_real(0.1, 0.9);
  config.consensus_log_base = rng.uniform_real(1.3, 5.0);
  config.price_mode = rng.bernoulli(0.8) ? core::PriceMode::kConsensus
                                         : core::PriceMode::kOrderStatistic;
  config.round_budget_policy = rng.bernoulli(0.6)
                                   ? core::RoundBudgetPolicy::kRunToCompletion
                                   : core::RoundBudgetPolicy::kTheoretical;
  config.zero_on_failure = rng.bernoulli(0.8);
  return config;
}

}  // namespace

FuzzCase random_case(const GenParams& params, rng::Rng& rng) {
  FuzzCase c;
  const auto num_types =
      1 + static_cast<std::uint32_t>(rng.uniform_index(params.max_types));
  c.demand.resize(num_types);
  for (std::uint32_t t = 0; t < num_types; ++t) {
    c.demand[t] =
        static_cast<std::uint32_t>(rng.uniform_index(params.max_demand + 1));
  }
  const auto n = 1 + static_cast<std::uint32_t>(
                         rng.uniform_index(params.max_participants));

  // Clustered values: equal asks exercise the tie-shuffle and the
  // anonymity guarantee; a jittered minority keeps strict orders present.
  const auto num_clusters = 1 + static_cast<std::uint32_t>(rng.uniform_index(6));
  std::vector<double> clusters(num_clusters);
  for (double& v : clusters) v = random_cluster_value(rng);

  c.asks.reserve(n);
  c.costs.reserve(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    Ask ask;
    ask.type = TaskType{
        static_cast<std::uint32_t>(rng.uniform_index(num_types))};
    ask.quantity = random_quantity(params, rng);
    ask.value = clusters[rng.uniform_index(num_clusters)];
    if (rng.bernoulli(0.3)) {
      ask.value *= rng.uniform_real(0.8, 1.25);
    }
    c.asks.push_back(ask);
    c.costs.push_back(random_cost_for(ask.value, rng));
  }
  c.parents = random_parents(n, rng);
  c.config = random_config(rng);
  c.mech_seed = rng.next_u64();
  return c;
}

FuzzCase random_case(rng::Rng& rng) { return random_case(GenParams{}, rng); }

FuzzCase apply_mutation(const FuzzCase& base, Mutation mutation,
                        rng::Rng& rng) {
  FuzzCase c = base;
  const auto n = static_cast<std::uint32_t>(c.asks.size());
  const auto num_types = static_cast<std::uint32_t>(c.demand.size());
  c.signature.clear();  // a mutant is a new case, not the old repro
  switch (mutation) {
    case Mutation::kTweakValue: {
      const std::size_t j = rng.uniform_index(n);
      if (n > 1 && rng.bernoulli(0.5)) {
        // Copy another ask's value: manufactures a tie.
        c.asks[j].value = c.asks[rng.uniform_index(n)].value;
      } else {
        c.asks[j].value =
            std::clamp(c.asks[j].value * rng.uniform_real(0.5, 2.0), 1e-6,
                       1e6);
      }
      c.costs[j] = random_cost_for(c.asks[j].value, rng);
      break;
    }
    case Mutation::kTweakQuantity: {
      const std::size_t j = rng.uniform_index(n);
      c.asks[j].quantity = random_quantity(GenParams{}, rng);
      break;
    }
    case Mutation::kTweakDemand: {
      const std::size_t t = rng.uniform_index(num_types);
      c.demand[t] = static_cast<std::uint32_t>(
          rng.uniform_index(GenParams{}.max_demand + 1));
      break;
    }
    case Mutation::kRetype: {
      const std::size_t j = rng.uniform_index(n);
      c.asks[j].type =
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))};
      break;
    }
    case Mutation::kAddAsk: {
      Ask ask;
      ask.type =
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(num_types))};
      ask.quantity = random_quantity(GenParams{}, rng);
      ask.value = n > 0 && rng.bernoulli(0.5)
                      ? c.asks[rng.uniform_index(n)].value
                      : random_cluster_value(rng);
      c.asks.push_back(ask);
      c.costs.push_back(random_cost_for(ask.value, rng));
      // Any existing node (0..n) is an earlier node for the new node n+1.
      c.parents.push_back(
          static_cast<std::uint32_t>(rng.uniform_index(n + 1)));
      break;
    }
    case Mutation::kDropAsk: {
      if (n <= 1) break;
      const auto r = static_cast<std::uint32_t>(rng.uniform_index(n));
      const std::uint32_t removed_node = r + 1;
      const std::uint32_t grandparent = c.parents[r];
      FuzzCase next = c;
      next.asks.clear();
      next.costs.clear();
      next.parents.clear();
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j == r) continue;
        std::uint32_t p = c.parents[j];
        if (p == removed_node) p = grandparent;
        if (p > removed_node) p -= 1;
        next.asks.push_back(c.asks[j]);
        next.costs.push_back(c.costs[j]);
        next.parents.push_back(p);
      }
      c = next;
      break;
    }
    case Mutation::kReparent: {
      const std::size_t j = rng.uniform_index(n);
      // Nodes 0..j are all earlier than node j+1: no cycle possible.
      c.parents[j] = static_cast<std::uint32_t>(rng.uniform_index(j + 1));
      break;
    }
    case Mutation::kGraftChain: {
      // A same-typed chain under a random node: deep same-type ancestor
      // structure, exactly where discount-depth and same-type-exclusion
      // bugs live.
      const Ask seed_ask = c.asks[rng.uniform_index(n)];
      std::uint32_t attach =
          static_cast<std::uint32_t>(rng.uniform_index(n + 1));
      const auto links = 1 + static_cast<std::uint32_t>(rng.uniform_index(5));
      for (std::uint32_t k = 0; k < links; ++k) {
        Ask ask = seed_ask;
        if (rng.bernoulli(0.4) && num_types > 1) {
          ask.type = TaskType{
              static_cast<std::uint32_t>(rng.uniform_index(num_types))};
        }
        c.asks.push_back(ask);
        c.costs.push_back(random_cost_for(ask.value, rng));
        c.parents.push_back(attach);
        attach = static_cast<std::uint32_t>(c.asks.size());  // new node id
      }
      break;
    }
    case Mutation::kTweakConfig: {
      switch (rng.uniform_index(6)) {
        case 0: c.config.h = rng.uniform_real(0.2, 0.9); break;
        case 1: c.config.discount_base = rng.uniform_real(0.1, 0.9); break;
        case 2:
          c.config.consensus_log_base = rng.uniform_real(1.3, 5.0);
          break;
        case 3:
          c.config.price_mode = c.config.price_mode ==
                                        core::PriceMode::kConsensus
                                    ? core::PriceMode::kOrderStatistic
                                    : core::PriceMode::kConsensus;
          break;
        case 4:
          c.config.round_budget_policy =
              c.config.round_budget_policy ==
                      core::RoundBudgetPolicy::kTheoretical
                  ? core::RoundBudgetPolicy::kRunToCompletion
                  : core::RoundBudgetPolicy::kTheoretical;
          break;
        default: c.config.zero_on_failure = !c.config.zero_on_failure; break;
      }
      break;
    }
    case Mutation::kReseed:
      c.mech_seed = rng.next_u64();
      break;
  }
  return c;
}

FuzzCase mutate(const FuzzCase& base, rng::Rng& rng) {
  const auto pick =
      static_cast<Mutation>(rng.uniform_index(kNumMutations));
  return apply_mutation(base, pick, rng);
}

}  // namespace rit::testkit
