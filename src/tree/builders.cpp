#include "tree/builders.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "common/parallel.h"
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
  //
  // Parallel path: workers scan disjoint contiguous blocks of the (sorted)
  // wave, each collecting (candidate, inviter) pairs for still-unclaimed
  // neighbours WITHOUT mutating inviter[] (reads race-free: nothing writes
  // during the scan). The claims are then applied serially in worker order;
  // since block order concatenates to the full ascending wave order, the
  // first recorded claim for each candidate is exactly the claim the serial
  // loop would have made, so the forest is bit-identical at any thread
  // count. Below ~2k wave entries the spawn overhead beats the win.
  const unsigned max_workers = rit::resolve_threads(opts.threads, n);
  constexpr std::size_t kParallelWaveFloor = 2048;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> claims(
      max_workers);
  std::vector<std::uint32_t> next;
  while (!wave.empty() && join_order.size() < cap) {
    next.clear();
    const unsigned t = rit::resolve_threads(max_workers, wave.size());
    if (t > 1 && wave.size() >= kParallelWaveFloor) {
      rit::parallel_for_blocked(
          wave.size(), t,
          [&](std::uint64_t begin, std::uint64_t end, unsigned w) {
            auto& mine = claims[w];
            mine.clear();
            for (std::uint64_t i = begin; i < end; ++i) {
              const std::uint32_t u = wave[i];
              for (std::uint32_t v : g.out_neighbors(u)) {
                if (inviter[v] == kUnset) mine.emplace_back(v, u);
              }
            }
          });
      for (unsigned w = 0; w < t; ++w) {
        for (const auto& [v, u] : claims[w]) {
          if (inviter[v] != kUnset) continue;
          inviter[v] = u;
          next.push_back(v);
        }
      }
    } else {
      for (std::uint32_t u : wave) {
        for (std::uint32_t v : g.out_neighbors(u)) {
          if (inviter[v] != kUnset) continue;
          inviter[v] = u;
          next.push_back(v);
        }
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
