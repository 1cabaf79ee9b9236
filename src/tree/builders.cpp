#include "tree/builders.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "graph/generators.h"
#include "obs/obs.h"

namespace rit::tree {

namespace {

/// Sorts one BFS wave's distinct ids ascending. A dense wave (k >= n/64) is
/// ordered in O(k + n/64) through the all-zero bitmap `claimed`: set the
/// bits, then read them back word by word, zeroing each word read. A sparse
/// wave keeps std::sort, so a deep graph does not pay O(n/64) per wave.
void sort_wave(std::vector<std::uint32_t>& ids,
               std::vector<std::uint64_t>& claimed) {
  if (ids.size() < claimed.size()) return std::sort(ids.begin(), ids.end());
  for (std::uint32_t v : ids) claimed[v >> 6] |= std::uint64_t{1} << (v & 63);
  for (std::size_t w = 0, k = 0; k < ids.size(); ++w) {
    for (std::uint64_t bits = std::exchange(claimed[w], 0); bits != 0;
         bits &= bits - 1) {
      ids[k++] = static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
    }
  }
}

constexpr std::uint32_t kBaRootInviter =
    std::numeric_limits<std::uint32_t>::max();

/// The BFS waves of a Barabási–Albert forest, one entry per graph node in
/// ascending id.
struct BaWaves {
  std::uint32_t num_nodes{0};
  std::unique_ptr<std::uint32_t[]> depth;    // wave the node joins in
  std::unique_ptr<std::uint32_t[]> inviter;  // who recruited it, or
                                             // kBaRootInviter
  std::vector<std::uint32_t> wave_size;      // how many join in each wave

  /// Records graph node v.
  void join(std::uint32_t v, std::uint32_t d, std::uint32_t by) {
    depth[v] = d;
    inviter[v] = by;
    if (d >= wave_size.size()) wave_size.resize(d + 1, 0);
    ++wave_size[d];
  }
};

/// Draws the graph and computes every node's wave and inviter as it goes.
BaWaves draw_ba_waves(std::uint32_t num_nodes, std::uint32_t edges_per_node,
                      std::uint32_t seeds, rng::Rng& rng) {
  RIT_TRACE_SPAN("graph.generate");
  BaWaves w;
  w.num_nodes = num_nodes;
  w.depth = std::make_unique_for_overwrite<std::uint32_t[]>(num_nodes);
  w.inviter = std::make_unique_for_overwrite<std::uint32_t[]>(num_nodes);
  // The seed clique: node 0 is a seed and reaches every other clique node.
  for (std::uint32_t v = 0; v <= edges_per_node && v < num_nodes; ++v) {
    if (v < seeds) {
      w.join(v, 0, kBaRootInviter);
    } else {
      w.join(v, 1, 0);
    }
  }
  graph::barabasi_albert_draws(
      num_nodes, edges_per_node, rng,
      [&w, seeds](std::uint32_t v, std::span<const std::uint32_t> picked) {
        if (v < seeds) {
          w.join(v, 0, kBaRootInviter);
          return;
        }
        // The least (depth, id) among the picks, as one branch-free
        // minimum: which pick wins is unpredictable.
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::uint32_t u : picked) {
          best = std::min(best, std::uint64_t{w.depth[u]} << 32 | u);
        }
        w.join(v, static_cast<std::uint32_t>(best >> 32) + 1,
               static_cast<std::uint32_t>(best));
      });
  return w;
}

/// The forest's parent vector. The join order is a stable counting sort of
/// the ids by wave; `w` is consumed (its inviter[] is overwritten).
std::vector<std::uint32_t> ba_forest_parents(BaWaves w) {
  // next_node[d]: the tree node the next wave-d joiner gets.
  std::vector<std::uint32_t> next_node(w.wave_size.size());
  for (std::uint32_t d = 0, node = 1; d < w.wave_size.size(); ++d) {
    next_node[d] = node;
    node += w.wave_size[d];
  }
  // Every inviter is below the node it invites, so inviter[] can be
  // overwritten with tree node ids in the same ascending pass that reads it.
  const std::uint32_t n = w.num_nodes;
  std::vector<std::uint32_t> parents(std::size_t{n} + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t by = w.inviter[v];
    const std::uint32_t node = next_node[w.depth[v]]++;
    parents[node] = by == kBaRootInviter ? 0 : w.inviter[by];
    w.inviter[v] = node;
  }
  return parents;
}

}  // namespace

SpanningForestResult build_spanning_forest(const graph::Graph& g,
                                           const SpanningForestOptions& opts) {
  RIT_TRACE_SPAN("tree.build");
  RIT_CHECK_MSG(!opts.seeds.empty(), "spanning forest needs at least one seed");
  const std::uint32_t n = g.num_nodes();
  const std::uint32_t cap = opts.max_users.value_or(n);
  constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

  // inviter[u]: graph node that recruited u; kRootInviter for seeds.
  constexpr std::uint32_t kRootInviter = std::numeric_limits<std::uint32_t>::max() - 1;
  std::vector<std::uint32_t> inviter(n, kUnset);
  std::vector<std::uint64_t> claimed((std::size_t{n} + 63) / 64, 0);
  std::vector<std::uint32_t> join_order;
  join_order.reserve(std::min(n, cap));

  std::vector<std::uint32_t> wave;
  for (std::uint32_t s : opts.seeds) {
    RIT_CHECK_MSG(s < n, "seed " << s << " out of range");
    if (inviter[s] != kUnset) continue;  // duplicate seed
    inviter[s] = kRootInviter;
    wave.push_back(s);
  }
  std::sort(wave.begin(), wave.end());
  for (std::uint32_t s : wave) {
    if (join_order.size() >= cap) break;
    join_order.push_back(s);
  }

  // BFS waves. Within a wave we iterate inviters in ascending id, so the
  // first inviter to claim a candidate is the smallest-index one — the
  // paper's tie-break. New joiners are appended in ascending graph id.
  std::vector<std::uint32_t> next;
  while (!wave.empty() && join_order.size() < cap) {
    next.clear();
    for (std::uint32_t u : wave) {
      for (std::uint32_t v : g.out_neighbors(u)) {
        if (inviter[v] != kUnset) continue;
        inviter[v] = u;
        next.push_back(v);
      }
    }
    sort_wave(next, claimed);
    const std::size_t size_before = join_order.size();
    for (std::uint32_t v : next) {
      if (join_order.size() >= cap) break;
      join_order.push_back(v);
    }
    // Anyone marked in this wave but cut off by the cap must be un-marked.
    // `next` is sorted and was appended front-to-back, so exactly its first
    // `appended` entries made it in; the tail is the cut-off set.
    if (join_order.size() >= cap) {
      const std::size_t appended = join_order.size() - size_before;
      for (std::size_t k = appended; k < next.size(); ++k) {
        inviter[next[k]] = kUnset;
      }
    }
    std::swap(wave, next);
    // Drop cut-off nodes from the frontier.
    std::erase_if(wave, [&](std::uint32_t v) { return inviter[v] == kUnset; });
  }

  if (opts.attach_unreached_to_root) {
    for (std::uint32_t u = 0; u < n && join_order.size() < cap; ++u) {
      if (inviter[u] == kUnset) {
        inviter[u] = kRootInviter;
        join_order.push_back(u);
      }
    }
  }

  SpanningForestResult res{IncentiveTree::root_only(), {}, {}, {}};
  res.joined.assign(n, false);
  res.node_of.assign(n, 0);
  res.graph_of.assign(join_order.size() + 1, 0);
  std::vector<std::uint32_t> parents(join_order.size() + 1, 0);
  for (std::uint32_t i = 0; i < join_order.size(); ++i) {
    const std::uint32_t u = join_order[i];
    res.joined[u] = true;
    res.node_of[u] = node_of_participant(i);
    res.graph_of[node_of_participant(i)] = u;
  }
  for (std::uint32_t i = 0; i < join_order.size(); ++i) {
    const std::uint32_t u = join_order[i];
    parents[node_of_participant(i)] =
        inviter[u] == kRootInviter ? 0 : res.node_of[inviter[u]];
  }
  res.tree = IncentiveTree(std::move(parents));
  return res;
}

std::uint32_t initial_seed_count(std::uint32_t initial_joiners,
                                 std::uint32_t num_nodes) {
  return std::min(std::max<std::uint32_t>(initial_joiners, 1), num_nodes);
}

IncentiveTree barabasi_albert_forest(std::uint32_t num_nodes,
                                     std::uint32_t edges_per_node,
                                     std::uint32_t initial_joiners,
                                     rng::Rng& rng) {
  BaWaves waves =
      draw_ba_waves(num_nodes, edges_per_node,
                    initial_seed_count(initial_joiners, num_nodes), rng);
  RIT_TRACE_SPAN("tree.build");
  return IncentiveTree(ba_forest_parents(std::move(waves)));
}

IncentiveTree random_recursive_tree(std::uint32_t num_participants,
                                    double root_prob, rng::Rng& rng) {
  RIT_TRACE_SPAN("tree.build");
  RIT_CHECK(root_prob >= 0.0 && root_prob <= 1.0);
  std::vector<std::uint32_t> parents(num_participants + 1, 0);
  for (std::uint32_t i = 0; i < num_participants; ++i) {
    const std::uint32_t node = node_of_participant(i);
    if (i == 0 || rng.bernoulli(root_prob)) {
      parents[node] = 0;
    } else {
      parents[node] = node_of_participant(
          static_cast<std::uint32_t>(rng.uniform_index(i)));
    }
  }
  return IncentiveTree(std::move(parents));
}

IncentiveTree flat_tree(std::uint32_t num_participants) {
  return IncentiveTree(std::vector<std::uint32_t>(num_participants + 1, 0));
}

IncentiveTree chain_tree(std::uint32_t num_participants) {
  std::vector<std::uint32_t> parents(num_participants + 1, 0);
  for (std::uint32_t i = 1; i < num_participants; ++i) {
    parents[node_of_participant(i)] = node_of_participant(i - 1);
  }
  return IncentiveTree(std::move(parents));
}

}  // namespace rit::tree
