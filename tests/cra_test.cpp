#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/cra.h"
#include "core/extract.h"
#include "rng/rng.h"
#include "testkit/oracle.h"

namespace rit::core {
namespace {

/// The run indices in ascending (value, run) order, as a complete book
/// lists them.
std::vector<std::uint32_t> value_order(std::span<const AskRun> runs) {
  std::vector<std::uint32_t> order(runs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return runs[a].value < runs[b].value;
                   });
  return order;
}

/// A round's outcome with its winners marked per unit ask.
struct UnitOutcome : CraOutcome {
  std::vector<bool> won;
};

/// One round on the unit asks `asks`, each its own run of a complete book,
/// so equal asks form tie groups of several runs whose shuffle is drawn
/// for real. All scratch lives in `ws`.
UnitOutcome run_round(std::span<const double> asks, const CraParams& params,
                      rng::Rng& rng, CraWorkspace& ws) {
  ExtractedRuns book;
  for (std::uint32_t i = 0; i < asks.size(); ++i) {
    book.runs.push_back(AskRun{asks[i], i, 1});
  }
  book.by_value = value_order(book.runs);
  complete_book(book);
  UnitOutcome out;
  run_cra_runs(book, params, rng, ws, out);
  out.won.assign(asks.size(), false);
  for (const RunWin& w : out.winners) out.won[w.run] = true;
  return out;
}

/// One round through a fresh workspace.
UnitOutcome run_round(std::span<const double> asks, const CraParams& params,
                      rng::Rng& rng) {
  CraWorkspace ws;
  return run_round(asks, params, rng, ws);
}

std::uint32_t count_winners(const UnitOutcome& o) {
  std::uint32_t c = 0;
  for (bool w : o.won) c += w ? 1 : 0;
  return c;
}

TEST(ConsensusRoundDown, ZeroCountIsZero) {
  EXPECT_EQ(consensus_round_down(0, 0.3), 0u);
}

TEST(ConsensusRoundDown, ExactPowersWithYZero) {
  // With y = 0 the consensus set is exactly the powers of two.
  EXPECT_EQ(consensus_round_down(1, 0.0), 1u);
  EXPECT_EQ(consensus_round_down(2, 0.0), 2u);
  EXPECT_EQ(consensus_round_down(3, 0.0), 2u);
  EXPECT_EQ(consensus_round_down(4, 0.0), 4u);
  EXPECT_EQ(consensus_round_down(1023, 0.0), 512u);
  EXPECT_EQ(consensus_round_down(1024, 0.0), 1024u);
}

TEST(ConsensusRoundDown, ValueIsInConsensusSetAndBelowCount) {
  rng::Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t count = 1 + rng.uniform_u64(100000);
    const double y = rng.uniform01();
    const std::uint64_t v = consensus_round_down(count, y);
    EXPECT_LE(v, count);
    if (v == 0) {
      // Only possible when 2^(z+y) < 1 for the maximal feasible z, i.e.
      // count == 1 and y > 0.
      EXPECT_EQ(count, 1u);
      EXPECT_GT(y, 0.0);
      continue;
    }
    // v = floor(2^(z+y)) for some integer z; recover z and verify both
    // sides of the maximality condition.
    const double exact = std::log2(static_cast<double>(count));
    const double z = std::floor(exact - y);
    EXPECT_EQ(v, static_cast<std::uint64_t>(std::floor(std::exp2(z + y))));
    EXPECT_GT(std::exp2(z + 1.0 + y), static_cast<double>(count) * (1 - 1e-12));
  }
}

TEST(ConsensusRoundDown, HalvingBoundsTheRatio) {
  // The consensus value is within a factor 2 of the count: count/2 < 2^(z+y+1)/2 <= v...
  // precisely: v > count/2 - 1 (floor effects aside, 2^(z+y) > count/2).
  rng::Rng rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t count = 2 + rng.uniform_u64(1 << 20);
    const double y = rng.uniform01();
    const std::uint64_t v = consensus_round_down(count, y);
    EXPECT_GT(static_cast<double>(v) + 1.0, static_cast<double>(count) / 2.0);
  }
}

TEST(ConsensusRoundDown, GeneralGridBases) {
  // Base 4, y = 0: the grid is {.., 1, 4, 16, 64, ..}.
  EXPECT_EQ(consensus_round_down(1, 0.0, 4.0), 1u);
  EXPECT_EQ(consensus_round_down(3, 0.0, 4.0), 1u);
  EXPECT_EQ(consensus_round_down(4, 0.0, 4.0), 4u);
  EXPECT_EQ(consensus_round_down(63, 0.0, 4.0), 16u);
  EXPECT_EQ(consensus_round_down(64, 0.0, 4.0), 64u);
  // Worst-case rounding loss is a factor of the base: value in
  // (count/base, count]. And averaged over y, the finer base-1.5 grid
  // keeps strictly more of the count than base 4 (pointwise comparison
  // does NOT hold — the grids are differently aligned per y).
  rng::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t count = 10 + rng.uniform_u64(100000);
    const double y = rng.uniform01();
    for (double base : {1.5, 4.0}) {
      const std::uint64_t v = consensus_round_down(count, y, base);
      EXPECT_LE(v, count);
      EXPECT_GT(static_cast<double>(v) + 1.0,
                static_cast<double>(count) / base);
    }
  }
  double kept15 = 0.0;
  double kept4 = 0.0;
  const int grid = 512;
  for (int i = 0; i < grid; ++i) {
    const double y = (i + 0.5) / grid;
    kept15 += static_cast<double>(consensus_round_down(100000, y, 1.5));
    kept4 += static_cast<double>(consensus_round_down(100000, y, 4.0));
  }
  EXPECT_GT(kept15, kept4);
  EXPECT_THROW(consensus_round_down(10, 0.5, 1.0), CheckFailure);
}

TEST(ConsensusRoundDown, LargerBasesShrinkCoalitionInfluence) {
  // The trade-off the grid base buys: measure of y where a k-shift flips
  // the consensus is log_c(z/(z-k)), decreasing in c.
  const std::uint64_t z = 5000;
  const std::uint64_t k = 100;
  auto measure = [&](double base) {
    const int grid = 4096;
    int changed = 0;
    for (int i = 0; i < grid; ++i) {
      const double y = (i + 0.5) / grid;
      if (consensus_round_down(z, y, base) !=
          consensus_round_down(z - k, y, base)) {
        ++changed;
      }
    }
    return static_cast<double>(changed) / grid;
  };
  const double m2 = measure(2.0);
  const double m8 = measure(8.0);
  EXPECT_LT(m8, m2);
  EXPECT_LE(m2, std::log2(static_cast<double>(z) / (z - k)) + 2.0 / 4096);
  EXPECT_LE(m8, std::log(static_cast<double>(z) / (z - k)) / std::log(8.0) +
                    2.0 / 4096);
}

TEST(ConsensusRoundDown, CoalitionInfluenceMeasureMatchesLemma62) {
  // The heart of Lemma 6.2: a coalition that adds/removes up to k of the
  // asks below the threshold shifts the raw count within [z-k, z]; the
  // consensus value only changes on a set of y of measure at most
  // log2(z / (z-k)). Evaluate the measure exactly-ish on a fine y-grid.
  rng::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t z = 200 + rng.uniform_u64(100000);
    const std::uint64_t k = 1 + rng.uniform_u64(z / 20);  // k <= z/20
    const int grid = 4096;
    int changed = 0;
    for (int i = 0; i < grid; ++i) {
      const double y = (i + 0.5) / grid;
      if (consensus_round_down(z, y) != consensus_round_down(z - k, y)) {
        ++changed;
      }
    }
    const double measure = static_cast<double>(changed) / grid;
    const double bound = std::log2(static_cast<double>(z) /
                                   static_cast<double>(z - k));
    EXPECT_LE(measure, bound + 2.0 / grid)
        << "z=" << z << " k=" << k << " measure=" << measure
        << " bound=" << bound;
  }
}

TEST(Cra, EmptyAsksNoWinners) {
  rng::Rng rng(3);
  const UnitOutcome o = run_round({}, {.q = 5, .m_i = 5}, rng);
  EXPECT_EQ(o.num_winners, 0u);
  EXPECT_TRUE(o.won.empty());
}

TEST(Cra, ZeroTasksNoWinners) {
  rng::Rng rng(4);
  const std::vector<double> asks{1.0, 2.0, 3.0};
  const UnitOutcome o = run_round(asks, {.q = 0, .m_i = 5}, rng);
  EXPECT_EQ(count_winners(o), 0u);
}

TEST(Cra, NeverAllocatesMoreThanQ) {
  rng::Rng rng(5);
  std::vector<double> asks;
  for (int i = 0; i < 500; ++i) asks.push_back(0.1 + 0.01 * i);
  for (int trial = 0; trial < 200; ++trial) {
    const UnitOutcome o = run_round(asks, {.q = 7, .m_i = 10}, rng);
    EXPECT_LE(count_winners(o), 7u);
    EXPECT_EQ(count_winners(o), o.num_winners);
  }
}

TEST(Cra, WinnersNeverOutbidTheClearingPrice) {
  rng::Rng rng(6);
  rng::Rng ask_rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> asks;
    const std::size_t n = 1 + ask_rng.uniform_index(300);
    for (std::size_t i = 0; i < n; ++i) {
      asks.push_back(ask_rng.uniform_real_left_open(0.0, 10.0));
    }
    const auto q = static_cast<std::uint32_t>(1 + ask_rng.uniform_index(20));
    const auto m = static_cast<std::uint32_t>(q + ask_rng.uniform_index(50));
    const UnitOutcome o = run_round(asks, {.q = q, .m_i = m}, rng);
    for (std::size_t w = 0; w < asks.size(); ++w) {
      if (o.won[w]) {
        EXPECT_LE(asks[w], o.clearing_price)
            << "IR violation (Lemma 6.1) at trial " << trial;
      }
    }
    if (o.num_winners == 0) {
      EXPECT_EQ(o.clearing_price, 0.0);
    }
  }
}

TEST(Cra, DeterministicGivenRngState) {
  std::vector<double> asks;
  for (int i = 0; i < 100; ++i) asks.push_back(1.0 + i * 0.05);
  rng::Rng a(8);
  rng::Rng b(8);
  const UnitOutcome oa = run_round(asks, {.q = 10, .m_i = 20}, a);
  const UnitOutcome ob = run_round(asks, {.q = 10, .m_i = 20}, b);
  EXPECT_EQ(oa.won, ob.won);
  EXPECT_EQ(oa.clearing_price, ob.clearing_price);
}

TEST(Cra, ReusedWorkspaceMatchesFreshWorkspace) {
  // Same rng state in, bit-identical outcome out — including when the
  // workspace is reused across rounds of different sizes, so stale capacity
  // can never leak into the result.
  std::vector<double> asks;
  for (int i = 0; i < 150; ++i) asks.push_back(0.5 + 0.02 * i);
  CraWorkspace ws;
  for (const std::uint32_t n : {150u, 40u, 150u, 7u}) {
    const auto view = std::span<const double>(asks).first(n);
    const CraParams params{.q = n / 3 + 1, .m_i = n / 2 + 1};
    rng::Rng a(21);
    rng::Rng b(21);
    const UnitOutcome fresh = run_round(view, params, a);
    const UnitOutcome reused = run_round(view, params, b, ws);
    EXPECT_EQ(reused.won, fresh.won);
    EXPECT_EQ(reused.num_winners, fresh.num_winners);
    EXPECT_EQ(reused.clearing_price, fresh.clearing_price);
    EXPECT_EQ(reused.raw_count, fresh.raw_count);
    EXPECT_EQ(reused.consensus_count, fresh.consensus_count);
    EXPECT_EQ(reused.sample_min, fresh.sample_min);
  }
}

TEST(Cra, WinnersAreAmongTheCheapestRawCount) {
  // All winners must have value <= the sampled threshold s (they are chosen
  // from the n_s <= z_s cheapest asks).
  rng::Rng rng(9);
  std::vector<double> asks;
  for (int i = 0; i < 400; ++i) asks.push_back(0.5 + 0.01 * i);
  for (int trial = 0; trial < 100; ++trial) {
    const UnitOutcome o = run_round(asks, {.q = 20, .m_i = 40}, rng);
    for (std::size_t w = 0; w < asks.size(); ++w) {
      if (o.won[w]) {
        EXPECT_LE(asks[w], o.sample_min);
      }
    }
    EXPECT_LE(o.consensus_count, o.raw_count == 0 ? 0 : o.raw_count);
  }
}

TEST(Cra, EmptySampleStaysProductiveAndIr) {
  // With q + m_i astronomically large, the per-ask sample probability is
  // ~0, so the sample is (almost) always empty and s is the top ask.
  std::vector<double> asks{1.0, 2.0, 3.0};
  rng::Rng rng(11);
  CraParams params{.q = 1000000, .m_i = 1000000};
  bool any = false;
  for (int t = 0; t < 50; ++t) {
    const UnitOutcome o = run_round(asks, params, rng);
    for (std::size_t w = 0; w < asks.size(); ++w) {
      if (o.won[w]) {
        any = true;
        EXPECT_LE(asks[w], o.clearing_price);
        EXPECT_TRUE(std::isfinite(o.clearing_price));
      }
    }
  }
  EXPECT_TRUE(any);
}

TEST(Cra, SingleAskCannotClearTheConsensusHurdle) {
  // With z_s = 1 the consensus value 2^(z+y) <= 1 floors to 0 for every
  // y > 0, so a lone ask (almost) never wins — the mechanism needs real
  // competition per Remark 6.1. This is the faithful reading of Alg. 1 and
  // the reason core::kStallRoundLimit exists.
  std::vector<double> asks{2.5};
  rng::Rng rng(12);
  int wins = 0;
  for (int t = 0; t < 200; ++t) {
    wins += count_winners(run_round(asks, {.q = 1, .m_i = 1}, rng));
  }
  EXPECT_EQ(wins, 0);
}

TEST(Cra, BudgetPriceKicksInWhenConsensusExceedsBudget) {
  // Many equal cheap asks force n_s large; with a small budget the
  // (q+m_i+1)-st price path must keep winners <= q+m_i and the price at
  // least the winning values.
  std::vector<double> asks(1000, 1.0);
  asks.push_back(9.0);
  rng::Rng rng(13);
  bool saw_budget_price = false;
  for (int t = 0; t < 300; ++t) {
    const UnitOutcome o = run_round(asks, {.q = 3, .m_i = 4}, rng);
    EXPECT_LE(count_winners(o), 3u);
    if (o.used_budget_price) {
      saw_budget_price = true;
      EXPECT_GE(o.clearing_price, 1.0);
    }
  }
  EXPECT_TRUE(saw_budget_price);
}

TEST(CraOrderStatistic, WinnersAndPriceAreDeterministic) {
  // Ablation mode: a plain (q+m_i+1)-st price round.
  const std::vector<double> asks{5.0, 1.0, 3.0, 2.0, 4.0, 6.0};
  rng::Rng rng(20);
  CraParams params{.q = 1, .m_i = 2,
                   .price_mode = PriceMode::kOrderStatistic};
  const UnitOutcome o = run_round(asks, params, rng);
  // budget = 3: potential winners are asks 1.0, 2.0, 3.0; price = 4.0.
  EXPECT_EQ(o.num_winners, 1u);
  EXPECT_DOUBLE_EQ(o.clearing_price, 4.0);
  for (std::size_t w = 0; w < asks.size(); ++w) {
    if (o.won[w]) {
      EXPECT_LE(asks[w], 3.0);
    }
  }
}

TEST(CraOrderStatistic, NoPriceWithoutEnoughAsks) {
  const std::vector<double> asks{1.0, 2.0, 3.0};
  rng::Rng rng(21);
  CraParams params{.q = 1, .m_i = 2,
                   .price_mode = PriceMode::kOrderStatistic};
  // Needs budget + 1 = 4 asks.
  const UnitOutcome o = run_round(asks, params, rng);
  EXPECT_EQ(o.num_winners, 0u);
}

// The demand-reduction book: six cheap organic asks, a price cliff, and
// three expensive organic asks. Budget q+m = 10, so the 11th lowest ask
// sets the deterministic price. An attacker with 6 units at cost 4.0:
//   truthful: sorted book = {1.0 x6, 4.0 x6, 9.5, 9.8, 9.9};
//             the 11th lowest is its own 4.0 -> margin 0;
//   withhold to 2 units: {1.0 x6, 4.0 x2, 9.5, 9.8, 9.9};
//             the 11th lowest is 9.9 -> margin 5.9 per winning unit.
std::vector<double> demand_reduction_book() {
  std::vector<double> book(6, 1.0);
  book.push_back(9.5);
  book.push_back(9.8);
  book.push_back(9.9);
  return book;
}

double attacker_cra_utility(const CraParams& params, int units,
                            std::uint64_t seed) {
  const std::vector<double> book = demand_reduction_book();
  std::vector<double> asks = book;
  for (int u = 0; u < units; ++u) asks.push_back(4.0);
  rng::Rng rng(seed);
  const UnitOutcome o = run_round(asks, params, rng);
  double utility = 0.0;
  for (std::size_t w = book.size(); w < asks.size(); ++w) {
    if (o.won[w]) utility += o.clearing_price - 4.0;
  }
  return utility;
}

TEST(CraOrderStatistic, DemandReductionManipulatesThePrice) {
  // The classic uniform-price manipulation the consensus mode exists to
  // kill: withheld units push the price-setting slot across the cliff.
  CraParams params{.q = 8, .m_i = 2,
                   .price_mode = PriceMode::kOrderStatistic};
  double truthful = 0.0;
  double reduced = 0.0;
  const int trials = 200;  // randomness only in the q-of-budget draw
  for (int t = 0; t < trials; ++t) {
    truthful += attacker_cra_utility(params, 6, 100 + t);
    reduced += attacker_cra_utility(params, 2, 100 + t);
  }
  truthful /= trials;
  reduced /= trials;
  EXPECT_NEAR(truthful, 0.0, 1e-12);  // price == own ask: zero margin
  EXPECT_GT(reduced, 4.0)
      << "order-statistic mode must be manipulable by demand reduction";
}

TEST(CraOrderStatistic, DemandReductionIsUnprofitableUnderConsensus) {
  // Same book under the paper's mode: the price is a sampled threshold, so
  // withholding units cannot place one's own ask at the price-setting slot.
  // Expected utilities: truthful weakly better (more units win whenever the
  // threshold clears 4.0).
  CraParams params{.q = 8, .m_i = 2};
  double truthful = 0.0;
  double reduced = 0.0;
  const int trials = 6000;
  for (int t = 0; t < trials; ++t) {
    truthful += attacker_cra_utility(params, 6, 500 + t);
    reduced += attacker_cra_utility(params, 2, 500 + t);
  }
  truthful /= trials;
  reduced /= trials;
  EXPECT_LE(reduced, truthful + 0.1)
      << "truthful=" << truthful << " reduced=" << reduced;
}

TEST(Cra, ComparativeStaticsCheaperBooksClearCheaper) {
  // Comparative statics of the sampled-threshold price: shifting every ask
  // down shifts the expected clearing price down (the threshold is a
  // sample min of the book). A distribution-level sanity check on top of
  // the per-run invariants.
  rng::Rng book_rng(42);
  std::vector<double> expensive;
  for (int i = 0; i < 300; ++i) {
    expensive.push_back(book_rng.uniform_real_left_open(2.0, 10.0));
  }
  std::vector<double> cheap;
  for (double v : expensive) cheap.push_back(v - 1.5);
  CraParams params{.q = 30, .m_i = 40};
  auto mean_price = [&](const std::vector<double>& book, std::uint64_t seed) {
    rng::Rng rng(seed);
    double sum = 0.0;
    int priced = 0;
    for (int t = 0; t < 2000; ++t) {
      const UnitOutcome o = run_round(book, params, rng);
      if (o.num_winners > 0) {
        sum += o.clearing_price;
        ++priced;
      }
    }
    return sum / priced;
  };
  EXPECT_LT(mean_price(cheap, 7), mean_price(expensive, 7) - 0.5);
}

TEST(Cra, MoreSupplyLowersExpectedPrice) {
  // Doubling the book at the same demand lowers the expected clearing
  // price: the Fig. 6(a) competition effect at CRA granularity.
  rng::Rng book_rng(43);
  std::vector<double> thin;
  for (int i = 0; i < 150; ++i) {
    thin.push_back(book_rng.uniform_real_left_open(0.0, 10.0));
  }
  std::vector<double> thick = thin;
  for (int i = 0; i < 150; ++i) {
    thick.push_back(book_rng.uniform_real_left_open(0.0, 10.0));
  }
  CraParams params{.q = 25, .m_i = 30};
  auto mean_price = [&](const std::vector<double>& book) {
    rng::Rng rng(11);
    double sum = 0.0;
    int priced = 0;
    for (int t = 0; t < 3000; ++t) {
      const UnitOutcome o = run_round(book, params, rng);
      if (o.num_winners > 0) {
        sum += o.clearing_price;
        ++priced;
      }
    }
    return sum / priced;
  };
  EXPECT_LT(mean_price(thick), mean_price(thin));
}

TEST(Cra, UniformWinnerSelectionAmongChosen) {
  // With 4 identical asks and q = 1, whoever is chosen must win ~uniformly.
  std::vector<double> asks(4, 1.0);
  rng::Rng rng(14);
  std::array<int, 4> wins{};
  int total = 0;
  for (int t = 0; t < 20000; ++t) {
    const UnitOutcome o = run_round(asks, {.q = 1, .m_i = 1}, rng);
    for (int w = 0; w < 4; ++w) {
      if (o.won[w]) {
        ++wins[w];
        ++total;
      }
    }
  }
  ASSERT_GT(total, 1000);
  for (int w = 0; w < 4; ++w) {
    EXPECT_NEAR(static_cast<double>(wins[w]) / total, 0.25, 0.05);
  }
}

// --- Equivalence with a full sort of every unit ask -----------------------
// run_cra_runs works on runs in a given value order: it expands and
// shuffles only the band's tie groups of several runs, and skips or
// replays every other shuffle's draws. The oracle's round
// (testkit::naive_cra) is the straightforward definition it must
// reproduce draw for draw: sort every unit ask by value, shuffle each
// group of equal values, then run steps 3-5.

/// An Extract-shaped alpha vector: one run of k ~ U{1..20} equal values per
/// user, users in ascending order. With `levels` > 0 values are drawn from
/// {1, ..., levels}, so equal values recur in non-adjacent runs.
std::vector<double> extract_shaped_book(std::size_t users, int levels,
                                        rng::Rng& rng) {
  std::vector<double> asks;
  for (std::size_t u = 0; u < users; ++u) {
    const double v =
        levels > 0 ? static_cast<double>(rng.uniform_int(1, levels))
                   : rng.uniform_real_left_open(0.0, 10.0);
    asks.insert(asks.end(), static_cast<std::size_t>(rng.uniform_int(1, 20)),
                v);
  }
  return asks;
}

/// Runs `rounds` rounds from matched rng states through run_round (one
/// reused workspace) and the oracle; outcomes and the next draw after
/// each call must be identical. Returns how many rounds had winners.
int expect_matches_full_sort(std::span<const double> asks,
                             const CraParams& params, int rounds,
                             std::uint64_t seed) {
  CraWorkspace ws;
  int productive = 0;
  for (int r = 0; r < rounds; ++r) {
    rng::Rng a(seed + static_cast<std::uint64_t>(r));
    rng::Rng b(seed + static_cast<std::uint64_t>(r));
    const UnitOutcome got = run_round(asks, params, a, ws);
    const testkit::NaiveRound want = testkit::naive_cra(asks, params, b);
    EXPECT_EQ(got.won, want.won) << "round " << r;
    EXPECT_EQ(got.num_winners, want.num_winners) << "round " << r;
    EXPECT_EQ(got.clearing_price, want.clearing_price) << "round " << r;
    EXPECT_EQ(got.sample_min, want.sample_min) << "round " << r;
    EXPECT_EQ(got.raw_count, want.raw_count) << "round " << r;
    EXPECT_EQ(got.consensus_count, want.consensus_count) << "round " << r;
    EXPECT_EQ(got.used_budget_price, want.used_budget_price) << "round " << r;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "stream diverged, round " << r;
    productive += got.num_winners > 0 ? 1 : 0;
  }
  return productive;
}

TEST(CraFullSortEquivalence, AllEqualBook) {
  const std::vector<double> asks(600, 3.5);
  EXPECT_GT(expect_matches_full_sort(asks, {.q = 20, .m_i = 150}, 100, 100),
            0);
}

TEST(CraFullSortEquivalence, AllDistinctBook) {
  rng::Rng gen(31);
  std::vector<double> asks(2000);
  for (double& a : asks) a = gen.uniform_real_left_open(0.0, 10.0);
  EXPECT_GT(expect_matches_full_sort(asks, {.q = 30, .m_i = 100}, 100, 200),
            0);
}

TEST(CraFullSortEquivalence, CrossUserTiesInNonAdjacentRuns) {
  rng::Rng gen(32);
  for (const int levels : {3, 12, 40}) {
    const std::vector<double> asks = extract_shaped_book(300, levels, gen);
    EXPECT_GT(
        expect_matches_full_sort(asks, {.q = 40, .m_i = 200}, 60, 300), 0);
  }
}

TEST(CraFullSortEquivalence, ExtractShapedContinuousValues) {
  rng::Rng gen(33);
  const std::vector<double> asks = extract_shaped_book(500, 0, gen);
  EXPECT_GT(expect_matches_full_sort(asks, {.q = 50, .m_i = 300}, 60, 400),
            0);
}

TEST(CraFullSortEquivalence, EmptySampleTakesTheWholeBook) {
  // q + m_i far above |alpha|: the sample is almost always empty, so s is
  // the largest ask and the band is every unit ask.
  rng::Rng gen(34);
  const std::vector<double> asks = extract_shaped_book(40, 5, gen);
  const CraParams params{.q = 1000000, .m_i = 1000000};
  EXPECT_GT(expect_matches_full_sort(asks, params, 50, 500), 0);
}

TEST(CraFullSortEquivalence, ConsensusAboveBudgetThinsTheBand) {
  // Many equal cheap asks make n_s exceed a small budget: the Bernoulli
  // thinning and the (q+m_i+1)-st price branch run on the band.
  rng::Rng gen(35);
  std::vector<double> asks = extract_shaped_book(120, 2, gen);
  asks.insert(asks.end(), 7, 9.0);
  const CraParams params{.q = 3, .m_i = 4};
  CraWorkspace ws;
  bool thinned = false;
  for (std::uint64_t r = 0; r < 200 && !thinned; ++r) {
    rng::Rng rng(600 + r);
    thinned = run_round(asks, params, rng, ws).consensus_count >
              params.q + params.m_i;
  }
  EXPECT_TRUE(thinned);
  expect_matches_full_sort(asks, params, 200, 600);
}

TEST(CraFullSortEquivalence, OrderStatisticArm) {
  rng::Rng gen(36);
  for (const int levels : {0, 4}) {
    const std::vector<double> asks = extract_shaped_book(200, levels, gen);
    const CraParams params{.q = 25, .m_i = 60,
                           .price_mode = PriceMode::kOrderStatistic};
    EXPECT_EQ(expect_matches_full_sort(asks, params, 50, 700), 50);
  }
}

// --- Shapes for each path of the tie-shuffle draws ------------------------
// run_cra_runs skips every tie-shuffle draw at once when the values are
// pairwise distinct and lcm(2..longest run) is at most 2^40, and otherwise
// walks the value order and draws group by group. The books below put the
// threshold at a chosen share of the book (the band ratio) and plant the
// shapes that force each path.

/// q + m_i as `band` of |alpha| (the sample minimum lands near rank
/// q + m_i); band >= 1 sets it to 1000 |alpha|, so the sample is almost
/// always empty and the whole book is the band.
CraParams params_for_band(std::size_t unit_asks, double band) {
  const auto budget = static_cast<std::uint64_t>(
      band >= 1.0 ? 1000.0 * static_cast<double>(unit_asks)
                  : band * static_cast<double>(unit_asks));
  return {.q = static_cast<std::uint32_t>(budget / 2),
          .m_i = static_cast<std::uint32_t>(budget - budget / 2)};
}

/// Mean share of the unit asks at or below the threshold over `rounds`.
double mean_band_ratio(std::span<const double> asks, const CraParams& params,
                       int rounds) {
  double sum = 0.0;
  for (int r = 0; r < rounds; ++r) {
    rng::Rng rng(900 + static_cast<std::uint64_t>(r));
    sum += static_cast<double>(run_round(asks, params, rng).raw_count) /
           static_cast<double>(asks.size());
  }
  return sum / rounds;
}

TEST(CraFullSortEquivalence, BandRatiosFromOnePercentToWholeBook) {
  // Distinct values: every run is its own tie group, so these take the
  // skip (at band 1 nothing is above s).
  rng::Rng gen(37);
  const std::vector<double> asks = extract_shaped_book(3000, 0, gen);
  for (const double band : {0.01, 0.14, 1.0}) {
    const CraParams params = params_for_band(asks.size(), band);
    const double measured = mean_band_ratio(asks, params, 40);
    if (band < 1.0) {
      EXPECT_GT(measured, band / 3) << "band " << band;
      EXPECT_LT(measured, band * 3) << "band " << band;
    } else {
      EXPECT_EQ(measured, 1.0);
    }
    EXPECT_GT(expect_matches_full_sort(asks, params, 60, 800), 0)
        << "band " << band;
  }
}

TEST(CraFullSortEquivalence, CrossUserTiesAboveThresholdFallBack) {
  // Every 40th user bids one of two shared high values, so equal values
  // recur in non-adjacent runs above s and the skip must not be taken.
  rng::Rng gen(38);
  std::vector<double> asks;
  for (int u = 0; u < 2000; ++u) {
    const double v = u % 40 != 0 ? gen.uniform_real_left_open(0.0, 9.0)
                     : u % 80 == 0 ? 9.5
                                   : 9.75;
    asks.insert(asks.end(), static_cast<std::size_t>(gen.uniform_int(1, 20)),
                v);
  }
  for (const double band : {0.01, 0.14}) {
    EXPECT_GT(expect_matches_full_sort(
                  asks, params_for_band(asks.size(), band), 60, 820),
              0)
        << "band " << band;
  }
}

TEST(CraFullSortEquivalence, LongRunAboveThresholdPastTheLcmCap) {
  // One user above s with 28, 29 or 40 equal asks. Through run_round
  // each ask is its own run, so the block is a tie group of several runs
  // and its draws are replayed at every length;
  // CraRunKernel.LongRunAboveThresholdPastTheLcmCap covers the lcm cap.
  for (const std::size_t len : {28u, 29u, 40u}) {
    rng::Rng gen(39);
    std::vector<double> asks = extract_shaped_book(1500, 0, gen);
    asks.insert(asks.begin(), len, 10.5);
    EXPECT_GT(expect_matches_full_sort(
                  asks, params_for_band(asks.size(), 0.05), 60, 840),
              0)
        << "len " << len;
  }
}

// --- The run kernel on per-user runs ---------------------------------------
// RIT calls run_cra_runs with one run per user, so users with equal values
// are separate runs of one tie group: in the band their asks are shuffled
// for real, and above s their draws are replayed. Each book below must
// give the oracle's winners counted per run, and its other fields and
// stream bit for bit. A book with distinct values takes the path that
// skips every tie-shuffle draw at once.

/// A complete book (complete_book) and its unit asks.
struct UserBook : ExtractedRuns {
  std::vector<double> asks;  // the same book expanded to unit asks
};

/// One run of k ~ U{1..20} units per user. With probability `repeat` a
/// user bids its predecessor's value, so neighbouring runs tie; otherwise
/// the value is drawn from {1, ..., levels}, or from (0, 10] at levels 0.
UserBook per_user_book(std::size_t users, int levels, double repeat,
                       rng::Rng& rng) {
  UserBook book;
  double value = 1.0;
  for (std::size_t u = 0; u < users; ++u) {
    if (u == 0 || !rng.bernoulli(repeat)) {
      value = levels > 0 ? static_cast<double>(rng.uniform_int(1, levels))
                         : rng.uniform_real_left_open(0.0, 10.0);
    }
    const auto len = static_cast<std::uint32_t>(rng.uniform_int(1, 20));
    book.runs.push_back(
        AskRun{value, static_cast<std::uint32_t>(book.asks.size()), len});
    book.asks.insert(book.asks.end(), len, value);
  }
  book.by_value = value_order(book.runs);
  complete_book(book);
  return book;
}

/// Runs `rounds` rounds of run_cra_runs (one reused workspace) on the
/// book `book_for_round` hands each round, and of the oracle on that
/// book's unit asks, from matched rng states. Each run's win count must
/// equal the oracle's winners among that run's unit asks, each run must
/// appear at most once among the winners, and every other field and the
/// next draw must be identical. `on_round`, if set, sees each round's book
/// and outcome. Returns how many rounds had winners.
int expect_books_match_full_sort(
    const std::function<ExtractedRuns&()>& book_for_round,
    const CraParams& params, int rounds, std::uint64_t seed,
    const std::function<void(const ExtractedRuns&, const CraOutcome&)>&
        on_round = {}) {
  CraWorkspace ws;
  CraOutcome got;
  int productive = 0;
  for (int r = 0; r < rounds; ++r) {
    ExtractedRuns& book = book_for_round();
    std::vector<double> asks;
    for (const AskRun& run : book.runs) {
      asks.insert(asks.end(), run.len, run.value);
    }
    rng::Rng a(seed + static_cast<std::uint64_t>(r));
    rng::Rng b(seed + static_cast<std::uint64_t>(r));
    run_cra_runs(book, params, a, ws, got);
    const testkit::NaiveRound want = testkit::naive_cra(asks, params, b);
    std::vector<std::uint32_t> got_wins(book.runs.size(), 0);
    std::uint64_t total = 0;
    for (const RunWin& w : got.winners) {
      if (w.run >= book.runs.size()) {
        ADD_FAILURE() << "run index out of range, round " << r;
        return productive;
      }
      EXPECT_EQ(got_wins[w.run], 0u) << "run listed twice, round " << r;
      EXPECT_GT(w.count, 0u) << "empty win, round " << r;
      got_wins[w.run] += w.count;
      total += w.count;
    }
    std::vector<std::uint32_t> want_wins(book.runs.size(), 0);
    for (std::size_t k = 0; k < book.runs.size(); ++k) {
      const AskRun& run = book.runs[k];
      for (std::uint32_t u = 0; u < run.len; ++u) {
        want_wins[k] += want.won[run.start + u] ? 1 : 0;
      }
    }
    EXPECT_EQ(got_wins, want_wins) << "round " << r;
    EXPECT_EQ(got.num_winners, total) << "round " << r;
    EXPECT_EQ(got.num_winners, want.num_winners) << "round " << r;
    EXPECT_EQ(got.clearing_price, want.clearing_price) << "round " << r;
    EXPECT_EQ(got.sample_min, want.sample_min) << "round " << r;
    EXPECT_EQ(got.raw_count, want.raw_count) << "round " << r;
    EXPECT_EQ(got.consensus_count, want.consensus_count) << "round " << r;
    EXPECT_EQ(got.used_budget_price, want.used_budget_price) << "round " << r;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "stream diverged, round " << r;
    if (on_round) on_round(book, got);
    productive += got.num_winners > 0 ? 1 : 0;
  }
  return productive;
}

/// expect_books_match_full_sort on one complete book, every round.
int expect_runs_match_full_sort(
    const UserBook& book, const CraParams& params, int rounds,
    std::uint64_t seed,
    const std::function<void(const CraOutcome&)>& on_round = {}) {
  ExtractedRuns runs = book;
  return expect_books_match_full_sort(
      [&]() -> ExtractedRuns& { return runs; }, params, rounds, seed,
      [&](const ExtractedRuns&, const CraOutcome& got) {
        if (on_round) on_round(got);
      });
}

/// A book from (value, len) runs, in book order.
UserBook book_of(std::span<const std::pair<double, std::uint32_t>> runs) {
  UserBook book;
  for (const auto& [value, len] : runs) {
    book.runs.push_back(
        AskRun{value, static_cast<std::uint32_t>(book.asks.size()), len});
    book.asks.insert(book.asks.end(), len, value);
  }
  book.by_value = value_order(book.runs);
  complete_book(book);
  return book;
}

/// `users` runs of len U{min_len..max_len} with distinct values drawn from
/// (lo, hi], appended to `runs`.
void add_distinct_runs(std::vector<std::pair<double, std::uint32_t>>& runs,
                       int users, double lo, double hi,
                       std::uint32_t min_len, std::uint32_t max_len,
                       rng::Rng& gen) {
  for (int u = 0; u < users; ++u) {
    runs.emplace_back(gen.uniform_real_left_open(lo, hi),
                      static_cast<std::uint32_t>(gen.uniform_int(
                          min_len, max_len)));
  }
}

/// Wins of the runs with value `tie` in one outcome.
std::uint64_t wins_at_value(const UserBook& book, const CraOutcome& o,
                            double tie) {
  std::uint64_t wins = 0;
  for (const RunWin& w : o.winners) {
    if (book.runs[w.run].value == tie) wins += w.count;
  }
  return wins;
}

TEST(CraRunKernel, AllWinBoundaryFallsInsideARun) {
  // Distinct values and q >= |alpha| >= n_s: every chosen ask wins, so the
  // winners are the n_s cheapest asks, a prefix of the value order. Every
  // run is at least 2 long, so the boundary usually cuts a run.
  rng::Rng gen(46);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 400, 0.0, 10.0, 2, 20, gen);
  const UserBook book = book_of(runs);
  const auto units = static_cast<std::uint32_t>(book.asks.size());
  int partial = 0;
  const int productive = expect_runs_match_full_sort(
      book, {.q = units, .m_i = units}, 60, 960, [&](const CraOutcome& o) {
        EXPECT_EQ(o.num_winners, o.consensus_count);
        for (const RunWin& w : o.winners) {
          partial += w.count < book.runs[w.run].len ? 1 : 0;
        }
      });
  EXPECT_GT(productive, 0);
  EXPECT_GT(partial, 0);
}

TEST(CraRunKernel, TieGroupStraddlesTheWinnerBoundary) {
  // A tie group of 60 users at 5.0 spread through the book, between 40
  // cheaper and 40 dearer users: the n_s boundary often falls inside it,
  // so which of its runs win depends on the real shuffle.
  rng::Rng gen(47);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 40, 0.0, 4.0, 1, 20, gen);
  add_distinct_runs(runs, 40, 6.0, 10.0, 1, 20, gen);
  for (int u = 0; u < 60; ++u) {
    runs.emplace_back(5.0, static_cast<std::uint32_t>(gen.uniform_int(1, 20)));
  }
  gen.shuffle(std::span<std::pair<double, std::uint32_t>>(runs));
  const UserBook book = book_of(runs);
  std::uint64_t tie_units = 0;
  for (const double a : book.asks) tie_units += a == 5.0 ? 1 : 0;
  const auto units = static_cast<std::uint32_t>(book.asks.size());
  int straddled = 0;
  EXPECT_GT(expect_runs_match_full_sort(
                book, {.q = units, .m_i = units}, 60, 980,
                [&](const CraOutcome& o) {
                  const std::uint64_t tie = wins_at_value(book, o, 5.0);
                  straddled += tie > 0 && tie < tie_units ? 1 : 0;
                }),
            0);
  EXPECT_GT(straddled, 0);
}

TEST(CraRunKernel, TieGroupBetweenSkippedSegments) {
  // Distinct runs, then a tie group of 8 users, then distinct runs: the
  // band's draws are a skipped segment, a real shuffle and a skipped
  // segment, and q = 10 sends the winners through the step-5 sample. With
  // runs of up to 40 asks the lcm is over the cap, so both segments are
  // replayed in order instead.
  for (const std::uint32_t max_len : {20u, 40u}) {
    rng::Rng gen(48);
    std::vector<std::pair<double, std::uint32_t>> runs;
    add_distinct_runs(runs, 30, 0.0, 4.0, 2, max_len, gen);
    for (int u = 0; u < 8; ++u) {
      runs.emplace_back(
          5.0, static_cast<std::uint32_t>(gen.uniform_int(1, 20)));
    }
    add_distinct_runs(runs, 30, 6.0, 10.0, 2, max_len, gen);
    const UserBook book = book_of(runs);
    const auto units = static_cast<std::uint32_t>(book.asks.size());
    int tie_won = 0;
    EXPECT_EQ(expect_runs_match_full_sort(
                  book, {.q = 10, .m_i = 1000000}, 60, 1000,
                  [&](const CraOutcome& o) {
                    EXPECT_EQ(o.raw_count, units);  // s is the top ask
                    tie_won += wins_at_value(book, o, 5.0) > 0 ? 1 : 0;
                  }),
              60)
        << "max_len " << max_len;
    EXPECT_GT(tie_won, 0) << "max_len " << max_len;
  }
}

TEST(CraRunKernel, ThinningWithTheBudgetPrice) {
  // q + m_i = 3 puts s near the cheapest asks, and a raw count above twice
  // the budget makes n_s exceed it: step 3 thins the band, and when more
  // than 3 asks survive, step 4 reprices at the 4th. On the book of short
  // runs the 4th survivor often sits in a cheaper run than s.
  rng::Rng gen(49);
  std::vector<std::pair<double, std::uint32_t>> short_runs;
  add_distinct_runs(short_runs, 600, 0.0, 10.0, 1, 2, gen);
  const std::pair<UserBook, int> books[] = {
      {per_user_book(300, 0, 0.3, gen), 400}, {book_of(short_runs), 2000}};
  const CraParams params{.q = 1, .m_i = 2};
  int thinned = 0;
  int repriced = 0;
  int repriced_below_s = 0;
  for (const auto& [book, rounds] : books) {
    EXPECT_GT(expect_runs_match_full_sort(
                  book, params, rounds, 1020,
                  [&](const CraOutcome& o) {
                    thinned += o.consensus_count > 3 ? 1 : 0;
                    repriced += o.used_budget_price ? 1 : 0;
                    repriced_below_s +=
                        o.used_budget_price && o.clearing_price < o.sample_min
                            ? 1
                            : 0;
                  }),
              0);
  }
  EXPECT_GT(thinned, 0);
  EXPECT_GT(repriced, 0);
  EXPECT_GT(repriced_below_s, 0);
}

TEST(CraRunKernel, EmptySampleAllAsksWinsWithoutASort) {
  // An empty sample: s is the top ask, the band is the whole book, and
  // with distinct values and q above |alpha| the n_s cheapest asks win.
  rng::Rng gen(50);
  const UserBook book = per_user_book(60, 0, 0.0, gen);
  const auto units = static_cast<std::uint32_t>(book.asks.size());
  const CraParams params{.q = 1000000, .m_i = 1000000};
  int empty = 0;
  EXPECT_GT(expect_runs_match_full_sort(
                book, params, 40, 1040,
                [&](const CraOutcome& o) {
                  empty += o.raw_count == units ? 1 : 0;
                  EXPECT_EQ(o.num_winners, o.consensus_count);
                }),
            0);
  EXPECT_GT(empty, 0);
}

TEST(CraRunKernel, LongRunAboveThresholdPastTheLcmCap) {
  // One user above s with more asks than the skip's lcm cap allows:
  // lcm(2..28) < 2^40 < lcm(2..29), so 28 takes the skip and 29 and 40
  // fall back to replaying the draws.
  for (const std::uint32_t len : {28u, 29u, 40u}) {
    rng::Rng gen(51);
    std::vector<std::pair<double, std::uint32_t>> runs{{10.5, len}};
    add_distinct_runs(runs, 1500, 0.0, 10.0, 1, 20, gen);
    const UserBook book = book_of(runs);
    EXPECT_GT(expect_runs_match_full_sort(
                  book, params_for_band(book.asks.size(), 0.05), 60, 1060),
              0)
        << "len " << len;
  }
}

TEST(CraRunKernel, NeighbouringEqualUsersStaySeparateRuns) {
  rng::Rng gen(40);
  for (const int levels : {0, 3, 12}) {
    const UserBook book = per_user_book(2000, levels, 0.5, gen);
    for (const double band : {0.01, 0.14}) {
      EXPECT_GT(expect_runs_match_full_sort(
                    book, params_for_band(book.asks.size(), band), 40, 860),
                0)
          << "levels " << levels << " band " << band;
    }
  }
}

TEST(CraRunKernel, BandRatiosFromOnePercentToWholeBook) {
  rng::Rng gen(41);
  const UserBook book = per_user_book(3000, 0, 0.1, gen);
  for (const double band : {0.01, 0.14, 1.0}) {
    EXPECT_GT(expect_runs_match_full_sort(
                  book, params_for_band(book.asks.size(), band), 40, 880),
              0)
        << "band " << band;
  }
}

TEST(CraRunKernel, BudgetOneSamplesEveryAskWithoutDraws) {
  // q + m_i = 1: the sample probability is 1, so phase 1 takes no draw and
  // s is the cheapest ask.
  rng::Rng gen(42);
  const UserBook book = per_user_book(300, 4, 0.5, gen);
  const CraParams params{.q = 1, .m_i = 0};
  EXPECT_GT(expect_runs_match_full_sort(book, params, 30, 900), 0);
  CraWorkspace ws;
  CraOutcome out;
  rng::Rng rng(901);
  ExtractedRuns runs = book;
  run_cra_runs(runs, params, rng, ws, out);
  EXPECT_EQ(out.sample_min,
            *std::min_element(book.asks.begin(), book.asks.end()));
}

TEST(CraRunKernel, EmptySampleMatchesFullSort) {
  // q + m_i far above |alpha|: the sample is almost always empty.
  rng::Rng gen(43);
  const UserBook book = per_user_book(40, 5, 0.5, gen);
  const CraParams params{.q = 1000000, .m_i = 1000000};
  EXPECT_GT(expect_runs_match_full_sort(book, params, 40, 920), 0);
}

TEST(CraRunKernel, OrderStatisticArm) {
  rng::Rng gen(44);
  for (const int levels : {0, 4}) {
    const UserBook book = per_user_book(200, levels, 0.5, gen);
    const CraParams params{.q = 25, .m_i = 60,
                           .price_mode = PriceMode::kOrderStatistic};
    EXPECT_EQ(expect_runs_match_full_sort(book, params, 30, 940), 30);
  }
}

// --- The kernel on Extract's books ------------------------------------------
// An Extract book gathers its value order from the per-auction index only
// as far as the round reads it, sorting the index's buckets as it goes, and
// takes its type's tie flag. Each round below extracts the book afresh over
// one index, as RIT does, and credits the round's winners before the next,
// so later rounds see exhausted users and a partly sorted index.

/// One type's asks, its index and the allocation so far.
struct IndexedBook {
  std::vector<Ask> asks;
  AskTypeIndex index;
  std::vector<std::uint32_t> allocation;
  ExtractedRuns runs;

  explicit IndexedBook(std::span<const std::pair<double, std::uint32_t>> book) {
    for (const auto& [value, len] : book) {
      asks.push_back(Ask{TaskType{0}, len, value});
    }
    index.build(1, asks);
    allocation.assign(asks.size(), 0);
  }
  std::uint64_t supply() const {
    std::uint64_t units = 0;
    for (const Ask& a : asks) units += a.quantity;
    return units;
  }
  /// Extract's book for the next round.
  ExtractedRuns& next() {
    extract_runs_into(TaskType{0}, index, allocation, runs);
    return runs;
  }
  /// Credits a round's winners, as RIT's settle step does.
  void credit(const ExtractedRuns& book, const CraOutcome& round) {
    for (const RunWin& w : round.winners) {
      allocation[book.owner[w.run]] += w.count;
    }
  }
};

/// `rounds` rounds on `book` against the oracle, crediting winners in
/// between; `on_round` sees each round's book and outcome as well.
int expect_extract_rounds_match_full_sort(
    IndexedBook& book, const CraParams& params, int rounds,
    std::uint64_t seed,
    const std::function<void(const ExtractedRuns&, const CraOutcome&)>&
        on_round = {}) {
  return expect_books_match_full_sort(
      [&]() -> ExtractedRuns& { return book.next(); }, params, rounds, seed,
      [&](const ExtractedRuns& runs, const CraOutcome& got) {
        if (on_round) on_round(runs, got);
        book.credit(runs, got);
      });
}

TEST(CraExtractBook, NoTiesAtEveryBandRatio) {
  rng::Rng gen(71);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 2000, 0.0, 10.0, 1, 20, gen);
  for (const double band : {0.01, 0.14, 1.0}) {
    IndexedBook book(runs);
    ASSERT_FALSE(book.next().tied);
    EXPECT_GT(expect_extract_rounds_match_full_sort(
                  book, params_for_band(book.supply(), band), 30, 1200),
              0)
        << "band " << band;
  }
}

TEST(CraExtractBook, TiesOnlyAboveTheBand) {
  // Distinct values in (0, 5], then pairs of users tied in (9, 10]: the
  // book is tied, but a band of a few percent never reaches the pairs.
  rng::Rng gen(72);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 2000, 0.0, 5.0, 1, 20, gen);
  for (int p = 0; p < 40; ++p) {
    const double v = gen.uniform_real_left_open(9.0, 10.0);
    runs.emplace_back(v, 3);
    runs.emplace_back(v, 5);
  }
  IndexedBook book(runs);
  ASSERT_TRUE(book.next().tied);
  int below_ties = 0;
  EXPECT_GT(expect_extract_rounds_match_full_sort(
                book, params_for_band(book.supply(), 0.05), 30, 1220,
                [&](const ExtractedRuns&, const CraOutcome& got) {
                  below_ties += got.sample_min < 9.0 ? 1 : 0;
                }),
            0);
  EXPECT_GT(below_ties, 0);
}

TEST(CraExtractBook, TiesInsideTheBand) {
  // Values on a grid of 40 levels: most of every band is tie groups of
  // several users, expanded and shuffled for real.
  rng::Rng gen(73);
  std::vector<std::pair<double, std::uint32_t>> runs;
  for (int u = 0; u < 1500; ++u) {
    runs.emplace_back(static_cast<double>(gen.uniform_int(1, 40)) / 4.0,
                      static_cast<std::uint32_t>(gen.uniform_int(1, 20)));
  }
  for (const double band : {0.05, 0.14, 1.0}) {
    IndexedBook book(runs);
    ASSERT_TRUE(book.next().tied);
    EXPECT_GT(expect_extract_rounds_match_full_sort(
                  book, params_for_band(book.supply(), band), 30, 1240),
              0)
        << "band " << band;
  }
}

TEST(CraExtractBook, EmptySampleTakesTheWholeBook) {
  rng::Rng gen(74);
  for (const bool tied : {false, true}) {
    std::vector<std::pair<double, std::uint32_t>> runs;
    add_distinct_runs(runs, 40, 0.0, 10.0, 1, 20, gen);
    if (tied) runs.emplace_back(runs.front().first, 4);
    IndexedBook book(runs);
    int empty = 0;
    EXPECT_GT(expect_extract_rounds_match_full_sort(
                  book, {.q = 1000000, .m_i = 1000000}, 20, 1260,
                  [&](const ExtractedRuns& runs_book, const CraOutcome& got) {
                    double top = 0.0;
                    for (const AskRun& run : runs_book.runs) {
                      top = std::max(top, run.value);
                    }
                    empty += got.sample_min == top ? 1 : 0;
                  }),
              0)
        << "tied " << tied;
    EXPECT_GT(empty, 0) << "tied " << tied;
  }
}

TEST(CraExtractBook, OrderStatisticArm) {
  rng::Rng gen(75);
  for (const bool tied : {false, true}) {
    std::vector<std::pair<double, std::uint32_t>> runs;
    add_distinct_runs(runs, 300, 0.0, 10.0, 1, 20, gen);
    if (tied) {
      for (int u = 0; u < 60; ++u) runs.emplace_back(runs[u].first, 2);
    }
    IndexedBook book(runs);
    const CraParams params{.q = 25, .m_i = 60,
                           .price_mode = PriceMode::kOrderStatistic};
    EXPECT_GT(expect_extract_rounds_match_full_sort(book, params, 20, 1280),
              0)
        << "tied " << tied;
  }
}

TEST(CraExtractBook, TypeDownToItsLastLiveUser) {
  // Every user but one is exhausted, among them the one that tied with
  // it: the book keeps its type's tie flag while its one run is distinct.
  rng::Rng gen(76);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 200, 0.0, 10.0, 1, 20, gen);
  runs.emplace_back(runs[17].first, 6);
  for (const CraParams params :
       {CraParams{.q = 1, .m_i = 1}, CraParams{.q = 3, .m_i = 8},
        CraParams{.q = 1000, .m_i = 1000}}) {
    IndexedBook book(runs);
    for (std::size_t j = 0; j + 1 < book.asks.size(); ++j) {
      book.allocation[j] = book.asks[j].quantity;
    }
    ExtractedRuns& last = book.next();
    ASSERT_EQ(last.runs.size(), 1u);
    ASSERT_TRUE(last.tied);
    expect_extract_rounds_match_full_sort(book, params, 20, 1300);
  }
}

TEST(CraExtractBook, UntiedBookThinsTheBand) {
  // q + m_i is 2% of the supply, so n_s often exceeds it and step 3 keeps
  // each band ask with probability (q + m_i) / (2 n_s); the win counts of
  // an untied book come from its runs without any tie-group probe.
  rng::Rng gen(77);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 2000, 0.0, 10.0, 1, 20, gen);
  IndexedBook book(runs);
  ASSERT_FALSE(book.next().tied);
  const CraParams params = params_for_band(book.supply(), 0.02);
  int thinned = 0;
  EXPECT_GT(expect_extract_rounds_match_full_sort(
                book, params, 60, 1320,
                [&](const ExtractedRuns&, const CraOutcome& got) {
                  thinned += got.consensus_count > params.q + params.m_i;
                }),
            0);
  EXPECT_GT(thinned, 0);
}

TEST(CraExtractBook, UntiedBookSamplesStepFive) {
  // q = 3 of a potential-winner budget of 403: step 5 draws the q winners
  // from the chosen asks as a bitmap over their indices.
  rng::Rng gen(78);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 2000, 0.0, 10.0, 1, 20, gen);
  IndexedBook book(runs);
  ASSERT_FALSE(book.next().tied);
  const CraParams params{.q = 3, .m_i = 400};
  int sampled = 0;
  EXPECT_GT(expect_extract_rounds_match_full_sort(
                book, params, 60, 1340,
                [&](const ExtractedRuns&, const CraOutcome& got) {
                  sampled += got.consensus_count > params.q &&
                             got.num_winners == params.q;
                }),
            0);
  EXPECT_GT(sampled, 0);
}

TEST(CraExtractBook, RunsLongerThanAWordWithThinningAndSampling) {
  // Runs of up to 300 asks span more than the two-word window that counts
  // a run's bits, so their thinning and sample bits are counted word by
  // word; the short runs between them still take the window.
  rng::Rng gen(79);
  std::vector<std::pair<double, std::uint32_t>> runs;
  add_distinct_runs(runs, 600, 0.0, 10.0, 1, 20, gen);
  add_distinct_runs(runs, 60, 0.0, 10.0, 64, 300, gen);
  for (const CraParams params :
       {CraParams{.q = 40, .m_i = 300}, CraParams{.q = 5, .m_i = 2000}}) {
    IndexedBook book(runs);
    ASSERT_FALSE(book.next().tied);
    EXPECT_GT(expect_extract_rounds_match_full_sort(book, params, 40, 1360),
              0);
  }
}

TEST(CraRunKernel, EmptyBookAndZeroDemandHaveNoWinners) {
  CraWorkspace ws;
  CraOutcome out;
  rng::Rng a(45);
  rng::Rng untouched(45);
  ExtractedRuns empty;
  complete_book(empty);
  run_cra_runs(empty, {.q = 5, .m_i = 5}, a, ws, out);
  EXPECT_TRUE(out.winners.empty());
  ExtractedRuns one;
  one.runs = {{2.0, 0, 3}};
  one.by_value = {0};
  complete_book(one);
  run_cra_runs(one, {.q = 0, .m_i = 5}, a, ws, out);
  EXPECT_TRUE(out.winners.empty());
  EXPECT_EQ(a.next_u64(), untouched.next_u64());
}

TEST(CraRunKernel, RejectsAValueOrderOfTheWrongSize) {
  CraWorkspace ws;
  CraOutcome out;
  rng::Rng rng(46);
  ExtractedRuns book;
  book.runs = {{2.0, 0, 3}, {1.0, 3, 2}};
  book.by_value = {1};
  EXPECT_THROW(complete_book(book), CheckFailure);
  book.runs.clear();
  EXPECT_THROW(complete_book(book), CheckFailure);
  // A book without an index must hold its whole order.
  book.runs = {{2.0, 0, 3}, {1.0, 3, 2}};
  book.by_value = {1, 0};
  complete_book(book);
  book.ordered = 1;
  EXPECT_THROW(run_cra_runs(book, {.q = 2, .m_i = 2}, rng, ws, out),
               CheckFailure);
}

TEST(CraRunKernel, RejectsRunsThatDoNotTileAlpha) {
  ExtractedRuns book;
  book.runs = {{2.0, 0, 3}, {1.0, 4, 2}};
  book.by_value = {1, 0};
  EXPECT_THROW(complete_book(book), CheckFailure);
  book.runs = {{2.0, 0, 3}, {1.0, 3, 0}};
  EXPECT_THROW(complete_book(book), CheckFailure);
}

}  // namespace
}  // namespace rit::core
