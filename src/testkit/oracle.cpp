#include "testkit/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/num_io.h"
#include "tree/incentive_tree.h"

namespace rit::testkit {
namespace {

using core::Ask;
using core::CraParams;
using core::Job;
using core::PriceMode;
using core::RitConfig;
using core::RitResult;
using core::RoundBudgetPolicy;

/// The consensus grid point by ladder walk: start far below any
/// representable count and climb one exponent at a time while the next
/// rung still fits. Uses the same std::pow(base, z + y) probes as the
/// production guard loops, so the fixpoint — and therefore the floor — is
/// identical; only the search strategy is naive.
std::uint64_t naive_consensus_round_down(std::uint64_t count, double y,
                                         double base) {
  RIT_CHECK(y >= 0.0 && y < 1.0);
  RIT_CHECK(base > 1.0);
  if (count == 0) return 0;
  double z = -2000.0;
  while (std::pow(base, z + 1.0 + y) <= static_cast<double>(count)) {
    z += 1.0;
  }
  return static_cast<std::uint64_t>(std::floor(std::pow(base, z + y)));
}

/// Ascending-value order with ties shuffled, over every unit ask.
/// std::stable_sort on the value alone leaves equal values in ascending
/// index order before the shuffle, which is the order production builds
/// from sorted runs of equal adjacent values. Production writes only the
/// band at or below the threshold and replays the shuffle draws of the tie
/// groups above it, so both consume identical draws.
std::vector<std::uint32_t> naive_sorted_shuffled(std::span<const double> values,
                                                 rng::Rng& rng) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] < values[b];
                   });
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    while (j < order.size() && values[order[j]] == values[order[i]]) ++j;
    if (j - i > 1) rng.shuffle(std::span<std::uint32_t>(&order[i], j - i));
    i = j;
  }
  return order;
}

}  // namespace

NaiveAlpha naive_extract(TaskType type, std::span<const Ask> asks,
                         std::span<const std::uint32_t> remaining) {
  RIT_CHECK(remaining.size() == asks.size());
  NaiveAlpha alpha;
  for (std::uint32_t j = 0; j < asks.size(); ++j) {
    if (asks[j].type != type) continue;
    RIT_CHECK_MSG(remaining[j] <= asks[j].quantity,
                  "remaining " << remaining[j] << " exceeds asked quantity "
                               << asks[j].quantity << " for user " << j);
    for (std::uint32_t k = 0; k < remaining[j]; ++k) {
      alpha.values.push_back(asks[j].value);
      alpha.owner.push_back(j);
    }
  }
  return alpha;
}

NaiveRound naive_cra(std::span<const double> values, const CraParams& params,
                     rng::Rng& rng) {
  NaiveRound out;
  out.won.assign(values.size(), false);
  if (values.empty() || params.q == 0) return out;
  const std::uint64_t budget =
      static_cast<std::uint64_t>(params.q) + params.m_i;

  if (params.price_mode == PriceMode::kOrderStatistic) {
    if (values.size() < budget + 1) return out;
    const std::vector<std::uint32_t> order =
        naive_sorted_shuffled(values, rng);
    const double price = values[order[budget]];
    out.sample_min = price;
    out.raw_count = budget;
    out.consensus_count = budget;
    const std::vector<std::size_t> sample =
        rng.sample_without_replacement(budget, params.q);
    for (std::size_t i : sample) out.won[order[i]] = true;
    out.num_winners = params.q;
    out.clearing_price = price;
    return out;
  }

  // Step 1: Bernoulli(1/(q+m_i)) sample, s = min sampled value.
  double s = std::numeric_limits<double>::infinity();
  bool sampled_any = false;
  for (double v : values) {
    if (rng.bernoulli(1.0 / static_cast<double>(budget))) {
      sampled_any = true;
      s = std::min(s, v);
    }
  }
  if (!sampled_any) s = *std::max_element(values.begin(), values.end());
  out.sample_min = s;

  // Step 2: consensus-round the count of asks at or below the threshold.
  const double y = rng.uniform01();
  std::uint64_t raw = 0;
  for (double v : values) {
    if (v <= s) ++raw;
  }
  const std::uint64_t n_s =
      naive_consensus_round_down(raw, y, params.consensus_grid_base);
  out.raw_count = raw;
  out.consensus_count = n_s;
  if (n_s == 0) return out;

  const std::vector<std::uint32_t> order = naive_sorted_shuffled(values, rng);

  // Step 3: potential winners in ascending-value order.
  std::vector<std::uint32_t> chosen;
  if (n_s <= budget) {
    chosen.assign(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(n_s));
  } else {
    const double keep_p =
        static_cast<double>(budget) / (2.0 * static_cast<double>(n_s));
    for (std::uint64_t i = 0; i < n_s; ++i) {
      if (rng.bernoulli(keep_p)) chosen.push_back(order[i]);
    }
  }

  // Step 4: trim to the budget, repricing at the first excluded ask.
  double price = s;
  if (chosen.size() > budget) {
    price = values[chosen[budget]];
    chosen.resize(budget);
    out.used_budget_price = true;
  }

  // Step 5: if more than q survive, q winners uniformly at random.
  if (chosen.size() > params.q) {
    const std::vector<std::size_t> sample =
        rng.sample_without_replacement(chosen.size(), params.q);
    std::vector<std::uint32_t> winners;
    for (std::size_t i : sample) winners.push_back(chosen[i]);
    chosen = winners;
  }

  for (std::uint32_t w : chosen) out.won[w] = true;
  out.num_winners = static_cast<std::uint32_t>(chosen.size());
  out.clearing_price = chosen.empty() ? 0.0 : price;
  return out;
}

RitResult oracle_run_rit(const FuzzCase& c) {
  const Job job(c.demand);
  std::vector<Ask> asks = c.asks;
  core::validate_asks(job, asks);
  std::vector<std::uint32_t> tree_parents(c.parents.size() + 1, 0);
  for (std::size_t j = 0; j < c.parents.size(); ++j) {
    tree_parents[j + 1] = c.parents[j];
  }
  const tree::IncentiveTree tree(tree_parents);
  RIT_CHECK(tree.num_participants() == asks.size());
  const RitConfig& config = c.config;
  rng::Rng rng(c.mech_seed);

  const auto n = static_cast<std::uint32_t>(asks.size());
  RitResult res;
  res.success = false;
  res.allocation.assign(n, 0);
  res.auction_payment.assign(n, 0.0);
  res.payment.assign(n, 0.0);
  res.k_max = core::observed_k_max(asks);
  const std::uint32_t m = std::max<std::uint32_t>(job.num_demanded_types(), 1);
  res.eta = std::pow(config.h, 1.0 / static_cast<double>(m));
  res.achieved_probability = 1.0;

  std::vector<std::uint32_t> remaining(n);
  for (std::uint32_t j = 0; j < n; ++j) remaining[j] = asks[j].quantity;

  bool all_allocated = true;
  for (std::uint32_t ti = 0; ti < job.num_types(); ++ti) {
    const TaskType type{ti};
    const std::uint32_t m_i = job.demand(type);
    core::TypeAuctionInfo info;
    info.type = type;
    info.demanded = m_i;
    info.budget = core::compute_round_budget(m_i, res.k_max, res.eta, config);
    res.probability_degraded |= info.budget.degraded;

    const bool to_completion =
        config.round_budget_policy == RoundBudgetPolicy::kRunToCompletion;
    std::uint32_t q = m_i;
    std::uint32_t stalled = 0;
    while (q > 0) {
      if (!to_completion && info.rounds_used >= info.budget.max_rounds) break;
      if (to_completion && stalled >= core::kStallRoundLimit) break;
      const NaiveAlpha alpha = naive_extract(type, asks, remaining);
      if (alpha.values.empty()) break;
      CraParams params;
      params.q = q;
      params.m_i = m_i;
      params.price_mode = config.price_mode;
      params.consensus_grid_base = config.consensus_log_base;
      const NaiveRound round = naive_cra(alpha.values, params, rng);
      for (std::size_t w = 0; w < alpha.values.size(); ++w) {
        if (!round.won[w]) continue;
        const std::uint32_t owner = alpha.owner[w];
        res.allocation[owner] += 1;
        res.auction_payment[owner] += round.clearing_price;
        remaining[owner] -= 1;
        q -= 1;
      }
      stalled = round.num_winners == 0 ? stalled + 1 : 0;
      ++info.rounds_used;
    }
    info.allocated = m_i - q;
    if (info.budget.per_round_bound > 0.0 &&
        info.budget.per_round_bound < 1.0) {
      info.achieved_bound = std::pow(info.budget.per_round_bound,
                                     static_cast<double>(info.rounds_used));
    } else {
      info.achieved_bound = info.rounds_used == 0 ? 1.0 : 0.0;
    }
    res.achieved_probability *= info.achieved_bound;
    if (to_completion && info.rounds_used > info.budget.max_rounds) {
      res.probability_degraded = true;
    }
    if (config.price_mode == PriceMode::kOrderStatistic) {
      res.probability_degraded = true;
    }
    if (q > 0) all_allocated = false;
    res.type_info.push_back(info);
  }

  res.success = all_allocated;
  if (!res.success) {
    if (config.zero_on_failure) {
      std::fill(res.allocation.begin(), res.allocation.end(), 0u);
      std::fill(res.auction_payment.begin(), res.auction_payment.end(), 0.0);
      std::fill(res.payment.begin(), res.payment.end(), 0.0);
    } else {
      res.payment = res.auction_payment;
    }
    return res;
  }

  // Payment determination through the shared O(Σdepth) reference, which
  // pushes each contribution up its ancestor chain (Alg. 3 line 24).
  std::vector<TaskType> types(n);
  for (std::uint32_t j = 0; j < n; ++j) types[j] = asks[j].type;
  res.payment = core::tree_payments_reference(tree, types, res.auction_payment,
                                              config.discount_base);
  return res;
}

namespace {

bool close(double a, double b, double rel_tol) {
  if (a == b) return true;
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= rel_tol * scale;
}

OracleDiff mismatch(const std::string& field, const std::string& detail) {
  OracleDiff d;
  d.match = false;
  d.field = field;
  d.detail = detail;
  return d;
}

std::string at_index(std::size_t i, double prod, double oracle) {
  return "index " + format_u64(i) + ": production " +
         format_double_g17(prod) + " vs oracle " + format_double_g17(oracle);
}

}  // namespace

OracleDiff diff_results(const core::RitResult& prod,
                        const core::RitResult& oracle,
                        double payment_tolerance) {
  if (prod.success != oracle.success) {
    return mismatch("success", prod.success ? "production succeeded, oracle "
                                              "failed"
                                            : "oracle succeeded, production "
                                              "failed");
  }
  if (prod.k_max != oracle.k_max) {
    return mismatch("k_max", "production " + format_u64(prod.k_max) +
                                 " vs oracle " + format_u64(oracle.k_max));
  }
  if (!close(prod.eta, oracle.eta, 1e-12)) {
    return mismatch("eta", at_index(0, prod.eta, oracle.eta));
  }
  if (prod.allocation.size() != oracle.allocation.size()) {
    return mismatch("allocation", "size mismatch");
  }
  for (std::size_t i = 0; i < prod.allocation.size(); ++i) {
    if (prod.allocation[i] != oracle.allocation[i]) {
      return mismatch("allocation",
                      "index " + format_u64(i) + ": production " +
                          format_u64(prod.allocation[i]) + " vs oracle " +
                          format_u64(oracle.allocation[i]));
    }
  }
  for (std::size_t i = 0; i < prod.auction_payment.size(); ++i) {
    if (!close(prod.auction_payment[i], oracle.auction_payment[i], 1e-12)) {
      return mismatch("auction_payment",
                      at_index(i, prod.auction_payment[i],
                               oracle.auction_payment[i]));
    }
  }
  if (prod.type_info.size() != oracle.type_info.size()) {
    return mismatch("type_info", "size mismatch");
  }
  for (std::size_t t = 0; t < prod.type_info.size(); ++t) {
    const core::TypeAuctionInfo& p = prod.type_info[t];
    const core::TypeAuctionInfo& o = oracle.type_info[t];
    if (p.demanded != o.demanded || p.allocated != o.allocated ||
        p.rounds_used != o.rounds_used) {
      return mismatch(
          "type_info",
          "type " + format_u64(t) + ": production (demanded " +
              format_u64(p.demanded) + ", allocated " +
              format_u64(p.allocated) + ", rounds " +
              format_u64(p.rounds_used) + ") vs oracle (demanded " +
              format_u64(o.demanded) + ", allocated " +
              format_u64(o.allocated) + ", rounds " +
              format_u64(o.rounds_used) + ")");
    }
  }
  if (prod.probability_degraded != oracle.probability_degraded) {
    return mismatch("probability_degraded", "flag mismatch");
  }
  if (!close(prod.achieved_probability, oracle.achieved_probability, 1e-12)) {
    return mismatch("achieved_probability",
                    at_index(0, prod.achieved_probability,
                             oracle.achieved_probability));
  }
  for (std::size_t i = 0; i < prod.payment.size(); ++i) {
    if (!close(prod.payment[i], oracle.payment[i], payment_tolerance)) {
      return mismatch("payment",
                      at_index(i, prod.payment[i], oracle.payment[i]));
    }
  }
  return {};
}

}  // namespace rit::testkit
