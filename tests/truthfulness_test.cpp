// Statistical truthfulness tests (Lemma 6.3 / Theorem 2).
//
// RIT is (K_max, H)-truthful: with probability >= H no deviation from the
// true cost helps. We verify the consequence that matters to a bidder —
// deviating does not pay in expectation — with paired mechanism seeds
// (common random numbers), which cancels most of the run-to-run noise:
// in the >= H fraction of realizations where the consensus is stable, the
// truthful and deviating runs produce identical prices and the paired
// difference is dominated by allocation changes that truthfulness bounds.
#include <gtest/gtest.h>

#include <vector>

#include "attack/bid_strategies.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "stats/online_stats.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

// A single-type instance with healthy consensus parameters:
// m_i = 120, K_max = 3 (2*K/m = 0.05), supply ~2.5x demand.
struct HealthyInstance {
  Job job{std::vector<std::uint32_t>{120}};
  std::vector<Ask> asks;
  std::uint32_t probe;  // the user whose incentives we probe
  double probe_cost;
  // RIT on a flat tree pays exactly the auction payments.
  tree::IncentiveTree flat = tree::flat_tree(200);

  explicit HealthyInstance(std::uint64_t seed) {
    rng::Rng rng(seed);
    const std::uint32_t n = 200;
    for (std::uint32_t j = 0; j < n; ++j) {
      asks.push_back(Ask{TaskType{0},
                         static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
                         rng.uniform_real_left_open(0.0, 10.0)});
    }
    // Probe a user whose cost sits in the competitive band (likely winner).
    probe = 0;
    for (std::uint32_t j = 1; j < n; ++j) {
      const double target = 3.0;
      if (std::abs(asks[j].value - target) <
          std::abs(asks[probe].value - target)) {
        probe = j;
      }
    }
    probe_cost = asks[probe].value;
  }
};

// Paired-mean utility gain of bidding `deviation` instead of the cost.
struct GainEstimate {
  double mean;
  double slack;  // 95% CI half-width of the paired differences
  double truthful_mean;
};

GainEstimate estimate_gain(const HealthyInstance& inst, double deviation,
                           int trials) {
  stats::OnlineStats diff;
  stats::OnlineStats truthful_stats;
  const auto deviated =
      attack::with_ask_value(inst.asks, inst.probe, deviation);
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 0xbead + static_cast<std::uint64_t>(t) * 7;
    double truthful_u;
    double deviated_u;
    {
      rng::Rng rng(seed);
      const RitResult r =
          run_rit(inst.job, inst.asks, inst.flat, RitConfig{}, rng);
      truthful_u = r.utility_of(inst.probe, inst.probe_cost);
    }
    {
      rng::Rng rng(seed);
      const RitResult r =
          run_rit(inst.job, deviated, inst.flat, RitConfig{}, rng);
      deviated_u = r.utility_of(inst.probe, inst.probe_cost);
    }
    diff.add(deviated_u - truthful_u);
    truthful_stats.add(truthful_u);
  }
  return GainEstimate{diff.mean(), diff.ci95_half_width(),
                      truthful_stats.mean()};
}

class DeviationSweep : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Factors, DeviationSweep,
                         ::testing::Values(0.25, 0.5, 0.8, 0.95, 1.05, 1.25,
                                           1.5, 2.0, 4.0));

TEST_P(DeviationSweep, DeviatingFromCostDoesNotPayInExpectation) {
  const HealthyInstance inst(21);
  const double deviation = inst.probe_cost * GetParam();
  const GainEstimate g = estimate_gain(inst, deviation, 400);
  // Tolerate CI slack plus a small absolute epsilon for the <= (1-H)
  // failure probability mass.
  EXPECT_LE(g.mean, g.slack + 0.08)
      << "deviation factor " << GetParam() << ": mean gain " << g.mean
      << " (truthful mean utility " << g.truthful_mean << ")";
}

TEST(Truthfulness, UnderreportingQuantityDoesNotPayInExpectation) {
  const HealthyInstance inst(22);
  if (inst.asks[inst.probe].quantity < 2) GTEST_SKIP();
  stats::OnlineStats diff;
  const auto deviated = attack::with_quantity(inst.asks, inst.probe, 1);
  for (int t = 0; t < 400; ++t) {
    const std::uint64_t seed = 0xfeedf00d + static_cast<std::uint64_t>(t);
    double truthful_u;
    double deviated_u;
    {
      rng::Rng rng(seed);
      const RitResult r =
          run_rit(inst.job, inst.asks, inst.flat, RitConfig{}, rng);
      truthful_u = r.utility_of(inst.probe, inst.probe_cost);
    }
    {
      rng::Rng rng(seed);
      const RitResult r =
          run_rit(inst.job, deviated, inst.flat, RitConfig{}, rng);
      deviated_u = r.utility_of(inst.probe, inst.probe_cost);
    }
    diff.add(deviated_u - truthful_u);
  }
  EXPECT_LE(diff.mean(), diff.ci95_half_width() + 0.08);
}

TEST(Truthfulness, RandomDeviationsDoNotPayInExpectation) {
  const HealthyInstance inst(23);
  rng::Rng dev_rng(77);
  for (int d = 0; d < 5; ++d) {
    const double deviation =
        attack::random_deviation(inst.probe_cost, 10.0, dev_rng);
    const GainEstimate g = estimate_gain(inst, deviation, 250);
    EXPECT_LE(g.mean, g.slack + 0.08) << "deviation " << deviation;
  }
}

// The structural half of Lemma 6.3: a user's own ask never influences the
// solicitation part of its payment, because descendants of its own type are
// excluded and other types run disjoint auctions. With a fixed seed, the
// tree reward of the probe is bit-identical across its own deviations.
TEST(Truthfulness, OwnBidNeverMovesOwnTreeReward) {
  rng::Rng rng_setup(31);
  const std::uint32_t n = 150;
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < n; ++j) {
    asks.push_back(Ask{TaskType{j % 2},
                       static_cast<std::uint32_t>(rng_setup.uniform_int(1, 3)),
                       rng_setup.uniform_real_left_open(0.0, 10.0)});
  }
  const Job job = Job::uniform(2, 30);
  const auto t = tree::random_recursive_tree(n, 0.2, rng_setup);
  const std::uint32_t probe = 5;
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  auto tree_reward = [&](double bid) {
    const auto bids = attack::with_ask_value(asks, probe, bid);
    rng::Rng rng(0x7777);
    const RitResult r = run_rit(job, bids, t, cfg, rng);
    if (!r.success) return -1.0;
    return r.payment[probe] - r.auction_payment[probe];
  };
  const double base = tree_reward(asks[probe].value);
  if (base < 0.0) GTEST_SKIP() << "allocation failed";
  for (double bid : {0.5, 2.0, 7.5}) {
    const double reward = tree_reward(bid);
    if (reward < 0.0) continue;
    // Equal up to prefix-sum reconstruction noise: the probe's own auction
    // payment differs across bids, and although it cancels exactly in real
    // arithmetic, the O(N) running-sum scan reconstructs it to within ulps.
    EXPECT_NEAR(reward, base, 1e-9 * (1.0 + base)) << "bid " << bid;
  }
}

}  // namespace
}  // namespace rit::core
