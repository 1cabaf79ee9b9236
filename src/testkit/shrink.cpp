#include "testkit/shrink.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace rit::testkit {

FuzzCase remove_participants(const FuzzCase& c,
                             const std::vector<char>& keep) {
  const std::size_t n = c.asks.size();
  RIT_CHECK(keep.size() == n);
  std::vector<std::uint32_t> node_map(n + 1, 0);
  std::uint32_t next = 1;
  for (std::size_t j = 0; j < n; ++j) {
    if (keep[j]) node_map[j + 1] = next++;
  }
  FuzzCase out;
  out.demand = c.demand;
  out.config = c.config;
  out.mech_seed = c.mech_seed;
  for (std::size_t j = 0; j < n; ++j) {
    if (!keep[j]) continue;
    std::uint32_t p = c.parents[j];
    while (p != 0 && !keep[p - 1]) p = c.parents[p - 1];
    out.asks.push_back(c.asks[j]);
    out.costs.push_back(c.costs[j]);
    out.parents.push_back(node_map[p]);
  }
  return out;
}

namespace {

struct Budget {
  std::uint32_t used{0};
  std::uint32_t max{0};
  bool spent() const { return used >= max; }
};

/// Evaluates `cand`; accepts it into `best` iff the failure class is
/// preserved. Returns whether the candidate was accepted.
bool try_accept(const FuzzCase& cand, const std::string& signature,
                const CaseCheck& check, FuzzCase& best, Budget& budget) {
  if (budget.spent()) return false;
  ++budget.used;
  if (check(cand) != signature) return false;
  best = cand;
  return true;
}

bool pass_remove_participants(const std::string& signature,
                              const CaseCheck& check, FuzzCase& best,
                              Budget& budget) {
  bool progress = false;
  std::size_t chunk = std::max<std::size_t>(best.asks.size() / 2, 1);
  while (chunk >= 1 && !budget.spent()) {
    bool removed_any = false;
    for (std::size_t start = 0; start < best.asks.size() && !budget.spent();) {
      const std::size_t n = best.asks.size();
      if (n <= 1) return progress;  // a case needs at least one ask
      const std::size_t len = std::min(chunk, n - start);
      if (len == n) {  // never try removing everyone
        start += len;
        continue;
      }
      std::vector<char> keep(n, 1);
      for (std::size_t j = start; j < start + len; ++j) keep[j] = 0;
      if (try_accept(remove_participants(best, keep), signature, check, best,
                     budget)) {
        progress = removed_any = true;
        // best shrank; retry the same start position at the new size
      } else {
        start += len;
      }
    }
    if (chunk == 1 && !removed_any) break;
    chunk = chunk == 1 ? 1 : chunk / 2;
    if (chunk == 1 && removed_any) continue;
  }
  return progress;
}

bool pass_reduce_demand(const std::string& signature, const CaseCheck& check,
                        FuzzCase& best, Budget& budget) {
  bool progress = false;
  for (std::size_t t = 0; t < best.demand.size() && !budget.spent(); ++t) {
    while (best.demand[t] > 0 && !budget.spent()) {
      FuzzCase cand = best;
      // Jump to zero first; fall back to halving toward it.
      cand.demand[t] = 0;
      if (try_accept(cand, signature, check, best, budget)) {
        progress = true;
        break;
      }
      cand = best;
      cand.demand[t] = best.demand[t] / 2;
      if (cand.demand[t] == best.demand[t]) break;
      if (!try_accept(cand, signature, check, best, budget)) break;
      progress = true;
    }
  }
  return progress;
}

bool pass_reduce_quantity(const std::string& signature,
                          const CaseCheck& check, FuzzCase& best,
                          Budget& budget) {
  bool progress = false;
  for (std::size_t j = 0; j < best.asks.size() && !budget.spent(); ++j) {
    if (best.asks[j].quantity <= 1) continue;
    FuzzCase cand = best;
    cand.asks[j].quantity = 1;
    progress |= try_accept(cand, signature, check, best, budget);
  }
  return progress;
}

bool pass_canonicalize_values(const std::string& signature,
                              const CaseCheck& check, FuzzCase& best,
                              Budget& budget) {
  bool progress = false;
  for (std::size_t j = 0; j < best.asks.size() && !budget.spent(); ++j) {
    if (best.asks[j].value == 1.0 && best.costs[j] == 1.0) continue;
    FuzzCase cand = best;
    cand.asks[j].value = 1.0;
    cand.costs[j] = 1.0;
    progress |= try_accept(cand, signature, check, best, budget);
  }
  return progress;
}

bool pass_simplify_tree(const std::string& signature, const CaseCheck& check,
                        FuzzCase& best, Budget& budget) {
  bool progress = false;
  // Full flatten first: if the failure survives without any solicitation
  // structure, the tree was irrelevant.
  {
    FuzzCase cand = best;
    bool flat = true;
    for (std::uint32_t& p : cand.parents) {
      if (p != 0) flat = false;
      p = 0;
    }
    if (!flat) progress |= try_accept(cand, signature, check, best, budget);
  }
  // Otherwise hoist node by node one level toward the root.
  for (std::size_t j = 0; j < best.parents.size() && !budget.spent(); ++j) {
    const std::uint32_t p = best.parents[j];
    if (p == 0) continue;
    FuzzCase cand = best;
    cand.parents[j] = best.parents[p - 1];  // grandparent
    progress |= try_accept(cand, signature, check, best, budget);
  }
  return progress;
}

bool pass_canonicalize_config(const std::string& signature,
                              const CaseCheck& check, FuzzCase& best,
                              Budget& budget) {
  bool progress = false;
  const core::RitConfig defaults;
  auto try_knob = [&](auto setter) {
    if (budget.spent()) return;
    FuzzCase cand = best;
    setter(cand.config);
    if (serialize_case(cand) == serialize_case(best)) return;
    progress |= try_accept(cand, signature, check, best, budget);
  };
  try_knob([&](core::RitConfig& cfg) { cfg.h = defaults.h; });
  try_knob([&](core::RitConfig& cfg) {
    cfg.discount_base = defaults.discount_base;
  });
  try_knob([&](core::RitConfig& cfg) {
    cfg.consensus_log_base = defaults.consensus_log_base;
  });
  try_knob([&](core::RitConfig& cfg) { cfg.price_mode = defaults.price_mode; });
  try_knob([&](core::RitConfig& cfg) {
    cfg.round_budget_policy = defaults.round_budget_policy;
  });
  try_knob([&](core::RitConfig& cfg) {
    cfg.zero_on_failure = defaults.zero_on_failure;
  });
  return progress;
}

}  // namespace

ShrinkResult shrink(const FuzzCase& failing, const std::string& signature,
                    const CaseCheck& check, std::uint32_t max_checks) {
  ShrinkResult result;
  result.best = failing;
  result.best.signature = signature;
  Budget budget{0, max_checks};
  bool progress = true;
  while (progress && !budget.spent()) {
    progress = false;
    progress |= pass_remove_participants(signature, check, result.best, budget);
    progress |= pass_reduce_demand(signature, check, result.best, budget);
    progress |= pass_reduce_quantity(signature, check, result.best, budget);
    progress |= pass_canonicalize_values(signature, check, result.best, budget);
    progress |= pass_simplify_tree(signature, check, result.best, budget);
    progress |=
        pass_canonicalize_config(signature, check, result.best, budget);
    result.best.signature = signature;  // passes clear it via copies
  }
  result.checks_used = budget.used;
  result.best.signature = signature;
  return result;
}

}  // namespace rit::testkit
