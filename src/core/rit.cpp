#include "core/rit.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cra.h"
#include "core/extract.h"
#include "core/payment.h"
#include "obs/obs.h"

namespace rit::core {

RoundBudget compute_round_budget(std::uint32_t m_i, std::uint32_t k_max,
                                 double eta, const RitConfig& config) {
  RIT_CHECK(eta > 0.0 && eta < 1.0);
  RoundBudget out;
  if (m_i == 0) {
    out.max_rounds = 0;  // nothing to allocate, nothing to protect
    out.per_round_bound = 1.0;
    return out;
  }
  // Lemma 6.2 evaluated at the worst case q -> 0 (Remark 6.1): the bound is
  // monotone in q, so budgeting against q = 0 covers every round.
  const double mi = static_cast<double>(m_i);
  const double k = static_cast<double>(std::max<std::uint32_t>(k_max, 1));
  const double sample_term = std::pow(1.0 - 1.0 / mi, k);
  const double chernoff_term = std::exp(-mi / 8.0);
  double consensus_term;
  if (2.0 * k >= mi) {
    consensus_term = -std::numeric_limits<double>::infinity();
  } else {
    consensus_term =
        std::log(1.0 - 2.0 * k / mi) / std::log(config.consensus_log_base);
  }
  out.per_round_bound = sample_term + consensus_term - chernoff_term;

  if (out.per_round_bound <= 0.0 || out.per_round_bound >= 1.0) {
    // The Lemma 6.2 bound is vacuous for these parameters; the paper's
    // formula would allow zero rounds (and allocate nothing), so clamp to
    // one (DESIGN.md ambiguity #3).
    out.max_rounds = 1;
    out.degraded = true;
    return out;
  }
  // Largest `max` with per_round_bound^max >= eta.
  const double raw = std::log(eta) / std::log(out.per_round_bound);
  out.max_rounds = static_cast<std::uint32_t>(
      std::min(raw, 1e9));  // floor via truncation; raw >= 0 here
  if (out.max_rounds == 0) {
    out.max_rounds = 1;
    out.degraded = true;
  }
  return out;
}

double RitResult::total_payment() const {
  double t = 0.0;
  for (double p : payment) t += p;
  return t;
}

double RitResult::total_auction_payment() const {
  double t = 0.0;
  for (double p : auction_payment) t += p;
  return t;
}

void run_auction_phase_into(const Job& job, std::span<const Ask> asks,
                            const RitConfig& config, rng::Rng& rng,
                            RitWorkspace& ws, RitResult& res) {
  RIT_TRACE_SPAN("rit.auction_phase");
  RIT_COUNTER_INC("rit.auctions_run");
  validate_asks(job, asks);
  RIT_CHECK_MSG(config.h > 0.0 && config.h < 1.0,
                "H must lie in (0,1), got " << config.h);
  RIT_CHECK_MSG(config.consensus_log_base > 1.0,
                "consensus grid/log base must exceed 1, got "
                    << config.consensus_log_base);
  RIT_CHECK_MSG(config.discount_base > 0.0 && config.discount_base < 1.0,
                "discount base must lie in (0,1), got "
                    << config.discount_base);

  const auto n = static_cast<std::uint32_t>(asks.size());
  res.success = false;
  res.type_info.clear();
  res.probability_degraded = false;
  res.achieved_probability = 1.0;
  res.allocation.assign(n, 0);
  res.auction_payment.assign(n, 0.0);
  res.k_max = observed_k_max(asks);
  const std::uint32_t m = std::max<std::uint32_t>(job.num_demanded_types(), 1);
  res.eta = std::pow(config.h, 1.0 / static_cast<double>(m));

  // One per-type CSR build up front; each round then expands only its own
  // type's askers instead of rescanning all N asks. A user's capability
  // not yet consumed by earlier rounds (k'_j) is its quantity minus its
  // allocation so far, which Extract reads.
  {
    RIT_TRACE_SPAN("rit.index_build");
    ws.type_index.build(job.num_types(), asks);
  }

  // The settle table's longest chain: no run is longer than k_max.
  ws.repeated.reserve(std::size_t{res.k_max} + 1);

  bool all_allocated = true;
  for (std::uint32_t ti = 0; ti < job.num_types(); ++ti) {
    const TaskType type{ti};
    const std::uint32_t m_i = job.demand(type);
    TypeAuctionInfo info;
    info.type = type;
    info.demanded = m_i;
    info.budget = compute_round_budget(m_i, res.k_max, res.eta, config);
    res.probability_degraded |= info.budget.degraded;

    const bool to_completion =
        config.round_budget_policy == RoundBudgetPolicy::kRunToCompletion;
    std::uint32_t q = m_i;
    std::uint32_t stalled = 0;
    while (q > 0) {
      if (!to_completion && info.rounds_used >= info.budget.max_rounds) break;
      if (to_completion && stalled >= kStallRoundLimit) break;
      ExtractedRuns& alpha = ws.runs;
      {
        RIT_TRACE_SPAN("rit.extract");
        extract_runs_into(type, ws.type_index, res.allocation, alpha);
      }
      if (alpha.runs.empty()) break;  // nobody left who can serve this type
      CraParams params;
      params.q = q;
      params.m_i = m_i;
      params.price_mode = config.price_mode;
      params.consensus_grid_base = config.consensus_log_base;
      run_cra_runs(alpha, params, rng, ws.cra, ws.round);
      const CraOutcome& round = ws.round;
      {
        // Write-back visits only the winning runs. A winner's payment
        // takes one addition of the price per task it won, so it matches
        // a per-task write-back bit for bit. From 0.0 that chain is
        // repeated[count], the price added count times, which the round
        // extends as far as its largest first-time count; only a repeat
        // winner adds its own chain onto what it already has.
        RIT_TRACE_SPAN("rit.settle");
        const double price = round.clearing_price;
        std::vector<double>& repeated = ws.repeated;
        repeated.assign(1, 0.0);
        for (const RunWin& w : round.winners) {
          const std::uint32_t owner = alpha.owner[w.run];
          res.allocation[owner] += w.count;
          RIT_DCHECK(res.allocation[owner] <= asks[owner].quantity);
          double paid = res.auction_payment[owner];
          if (paid == 0.0) {
            while (repeated.size() <= w.count) {
              repeated.push_back(repeated.back() + price);
            }
            paid = repeated[w.count];
          } else {
            for (std::uint32_t c = 0; c < w.count; ++c) paid += price;
          }
          res.auction_payment[owner] = paid;
        }
      }
      RIT_DCHECK(round.num_winners <= q);
      q -= round.num_winners;
      if (config.record_round_trace) {
        info.rounds.push_back(RoundTrace{
            info.rounds_used, round.clearing_price, round.num_winners,
            q + round.num_winners, round.raw_count, round.consensus_count,
            round.used_budget_price});
      }
      stalled = round.num_winners == 0 ? stalled + 1 : 0;
      ++info.rounds_used;
    }
    info.allocated = m_i - q;
    if (info.budget.per_round_bound > 0.0 && info.budget.per_round_bound < 1.0) {
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
      // Lemma 6.2 does not apply to the deterministic ablation arm.
      res.probability_degraded = true;
    }
    if (q > 0) all_allocated = false;
    res.type_info.push_back(info);
  }

  res.success = all_allocated;
  if (!res.success && config.zero_on_failure) {
    std::fill(res.allocation.begin(), res.allocation.end(), 0u);
    std::fill(res.auction_payment.begin(), res.auction_payment.end(), 0.0);
  }
  res.payment.assign(res.auction_payment.begin(), res.auction_payment.end());
}

RitResult run_rit(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng) {
  RitWorkspace ws;
  RitResult res;
  run_rit_into(job, asks, tree, config, rng, ws, res);
  return res;
}

void run_rit_into(const Job& job, std::span<const Ask> asks,
                  const tree::IncentiveTree& tree, const RitConfig& config,
                  rng::Rng& rng, RitWorkspace& ws, RitResult& out) {
  run_auction_phase_into(job, asks, config, rng, ws, out);
  run_payment_phase_into(asks, tree, config, ws, out);
}

void run_payment_phase_into(std::span<const Ask> asks,
                            const tree::IncentiveTree& tree,
                            const RitConfig& config, RitWorkspace& ws,
                            RitResult& out) {
  RIT_CHECK_MSG(tree.num_participants() == asks.size(),
                "tree has " << tree.num_participants()
                            << " participants but " << asks.size()
                            << " asks were submitted");
  if (!out.success) return;  // fail closed: everything already zeroed

  std::vector<TaskType>& types = ws.types;
  types.resize(asks.size());
  for (std::size_t j = 0; j < asks.size(); ++j) types[j] = asks[j].type;
  tree_payments_into(tree, types, out.auction_payment, config.discount_base,
                     config.intra_threads, ws.payment, out.payment);
}

}  // namespace rit::core
