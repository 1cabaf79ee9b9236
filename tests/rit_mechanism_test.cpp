#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "testkit/harness.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

// A comfortable instance: plenty of supply relative to demand, so the
// consensus bound is healthy and allocation succeeds with high probability.
struct ComfortableInstance {
  Job job = Job::uniform(2, 50);
  std::vector<Ask> asks;
  tree::IncentiveTree tree = tree::IncentiveTree::root_only();

  explicit ComfortableInstance(std::uint64_t seed) {
    rng::Rng rng(seed);
    const std::uint32_t n = 200;
    for (std::uint32_t j = 0; j < n; ++j) {
      asks.push_back(Ask{
          TaskType{static_cast<std::uint32_t>(rng.uniform_index(2))},
          static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
          rng.uniform_real_left_open(0.0, 10.0)});
    }
    tree = tree::random_recursive_tree(n, 0.2, rng);
  }
};

TEST(RoundBudget, HealthyParametersGiveMultipleRounds) {
  RitConfig cfg;
  const RoundBudget b = compute_round_budget(5000, 20, 0.978, cfg);
  EXPECT_FALSE(b.degraded);
  EXPECT_GT(b.per_round_bound, 0.9);
  EXPECT_LT(b.per_round_bound, 1.0);
  EXPECT_GE(b.max_rounds, 1u);
}

TEST(RoundBudget, PaperExampleRemark61) {
  // Remark 6.1: K_max = 10, m_i = 1000 — the bound should be high (the
  // paper rounds it to 0.98; the base-2 consensus analysis gives ~0.96).
  RitConfig cfg;
  const RoundBudget b = compute_round_budget(1000, 10, 0.9, cfg);
  EXPECT_GT(b.per_round_bound, 0.95);
}

TEST(RoundBudget, Remark61NumbersPinnedAgainstThePaper) {
  // Pin our exact value for the paper's worked example so any change to
  // the bound formula is loud. With base-2 consensus:
  //   (1 - 1/1000)^10 + log2(1 - 20/1000) - e^(-125) = 0.96089...
  // The paper prints "0.98"; the gap is the consensus-log-base ambiguity
  // documented in DESIGN.md #1 (base e gives 0.9698; no base gives 0.98).
  RitConfig cfg;  // consensus_log_base = 2
  const RoundBudget base2 = compute_round_budget(1000, 10, 0.9, cfg);
  EXPECT_NEAR(base2.per_round_bound, 0.96089, 5e-4);
  cfg.consensus_log_base = std::exp(1.0);
  const RoundBudget base_e = compute_round_budget(1000, 10, 0.9, cfg);
  EXPECT_NEAR(base_e.per_round_bound, 0.96984, 5e-4);
  EXPECT_GT(base_e.per_round_bound, base2.per_round_bound);
}

TEST(RoundBudget, DegradesWhenConsensusTermBlowsUp) {
  // 2*K_max >= m_i makes the log term -inf; the clamp keeps one round.
  RitConfig cfg;
  const RoundBudget b = compute_round_budget(30, 20, 0.978, cfg);
  EXPECT_TRUE(b.degraded);
  EXPECT_EQ(b.max_rounds, 1u);
}

TEST(RoundBudget, UnclampedAllowsZeroRounds) {
  RitConfig cfg;
  cfg.clamp_min_one_round = false;
  const RoundBudget b = compute_round_budget(30, 20, 0.978, cfg);
  EXPECT_TRUE(b.degraded);
  EXPECT_EQ(b.max_rounds, 0u);
}

TEST(RoundBudget, ZeroDemandNeedsNoRounds) {
  RitConfig cfg;
  const RoundBudget b = compute_round_budget(0, 20, 0.978, cfg);
  EXPECT_EQ(b.max_rounds, 0u);
  EXPECT_FALSE(b.degraded);
}

TEST(RoundBudget, MoreRoundsWhenBoundCloserToOne) {
  RitConfig cfg;
  const RoundBudget strong = compute_round_budget(100000, 5, 0.978, cfg);
  const RoundBudget weak = compute_round_budget(2000, 20, 0.978, cfg);
  EXPECT_GE(strong.max_rounds, weak.max_rounds);
}

TEST(AuctionPhase, AllocationNeverExceedsDemandOrClaims) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ComfortableInstance inst(seed);
    rng::Rng rng(seed * 7 + 1);
    RitConfig cfg;
    cfg.zero_on_failure = false;  // observe partial allocations too
    const RitResult r = run_auction_phase(inst.job, inst.asks, cfg, rng);
    std::vector<std::uint64_t> per_type(inst.job.num_types(), 0);
    for (std::size_t j = 0; j < inst.asks.size(); ++j) {
      EXPECT_LE(r.allocation[j], inst.asks[j].quantity);
      per_type[inst.asks[j].type.value] += r.allocation[j];
    }
    for (std::uint32_t t = 0; t < inst.job.num_types(); ++t) {
      EXPECT_LE(per_type[t], inst.job.demand(TaskType{t}));
    }
  }
}

TEST(AuctionPhase, LosersGetNothingWinnersGetPaid) {
  ComfortableInstance inst(3);
  rng::Rng rng(33);
  RitConfig cfg;
  cfg.zero_on_failure = false;
  const RitResult r = run_auction_phase(inst.job, inst.asks, cfg, rng);
  for (std::size_t j = 0; j < inst.asks.size(); ++j) {
    if (r.allocation[j] == 0) {
      EXPECT_EQ(r.auction_payment[j], 0.0);
    } else {
      EXPECT_GT(r.auction_payment[j], 0.0);
    }
  }
}

TEST(AuctionPhase, IndividualRationalityPerWinner) {
  // Lemma 6.1: with truthful asks, auction payment >= allocation * cost.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    ComfortableInstance inst(seed + 100);
    rng::Rng rng(seed + 200);
    RitConfig cfg;
    cfg.zero_on_failure = false;
    const RitResult r = run_auction_phase(inst.job, inst.asks, cfg, rng);
    for (std::size_t j = 0; j < inst.asks.size(); ++j) {
      EXPECT_GE(r.auction_payment[j],
                static_cast<double>(r.allocation[j]) * inst.asks[j].value -
                    1e-9);
    }
  }
}

TEST(AuctionPhase, RoundsNeverExceedBudget) {
  ComfortableInstance inst(5);
  rng::Rng rng(55);
  const RitResult r = run_auction_phase(inst.job, inst.asks, RitConfig{}, rng);
  for (const TypeAuctionInfo& info : r.type_info) {
    EXPECT_LE(info.rounds_used, info.budget.max_rounds);
    EXPECT_LE(info.allocated, info.demanded);
  }
}

TEST(AuctionPhase, EtaIsPerTypeRootOfH) {
  ComfortableInstance inst(6);
  rng::Rng rng(66);
  RitConfig cfg;
  cfg.h = 0.64;
  const RitResult r = run_auction_phase(inst.job, inst.asks, cfg, rng);
  EXPECT_NEAR(r.eta, 0.8, 1e-12);  // 2 demanded types: 0.64^(1/2)
}

TEST(AuctionPhase, FailureZeroesEverything) {
  // Demand far above total supply: must fail, and fail closed.
  const Job job = Job::uniform(1, 1000);
  std::vector<Ask> asks{{TaskType{0}, 2, 1.0}, {TaskType{0}, 3, 2.0}};
  rng::Rng rng(7);
  const RitResult r = run_auction_phase(job, asks, RitConfig{}, rng);
  EXPECT_FALSE(r.success);
  for (std::size_t j = 0; j < asks.size(); ++j) {
    EXPECT_EQ(r.allocation[j], 0u);
    EXPECT_EQ(r.auction_payment[j], 0.0);
    EXPECT_EQ(r.payment[j], 0.0);
  }
}

TEST(AuctionPhase, FailureKeepsDiagnostics) {
  const Job job = Job::uniform(1, 1000);
  std::vector<Ask> asks{{TaskType{0}, 2, 1.0}, {TaskType{0}, 3, 2.0}};
  rng::Rng rng(8);
  const RitResult r = run_auction_phase(job, asks, RitConfig{}, rng);
  ASSERT_EQ(r.type_info.size(), 1u);
  EXPECT_EQ(r.type_info[0].demanded, 1000u);
  EXPECT_LT(r.type_info[0].allocated, 1000u);
}

TEST(AuctionPhase, KMaxOverrideRespected) {
  ComfortableInstance inst(9);
  rng::Rng rng(99);
  RitConfig cfg;
  cfg.k_max_override = 17;
  const RitResult r = run_auction_phase(inst.job, inst.asks, cfg, rng);
  EXPECT_EQ(r.k_max, 17u);
}

TEST(AuctionPhase, RejectsBadH) {
  ComfortableInstance inst(10);
  rng::Rng rng(1);
  RitConfig cfg;
  cfg.h = 1.0;
  EXPECT_THROW(run_auction_phase(inst.job, inst.asks, cfg, rng), CheckFailure);
  cfg.h = 0.0;
  EXPECT_THROW(run_auction_phase(inst.job, inst.asks, cfg, rng), CheckFailure);
}

TEST(AuctionPhase, RejectsBadBases) {
  ComfortableInstance inst(10);
  rng::Rng rng(1);
  RitConfig cfg;
  cfg.consensus_log_base = 1.0;  // would flip the sign of the bound term
  EXPECT_THROW(run_auction_phase(inst.job, inst.asks, cfg, rng), CheckFailure);
  cfg = RitConfig{};
  cfg.discount_base = 1.0;
  EXPECT_THROW(run_auction_phase(inst.job, inst.asks, cfg, rng), CheckFailure);
}

TEST(Rit, SizeMismatchBetweenTreeAndAsksRejected) {
  ComfortableInstance inst(11);
  const auto small_tree = tree::flat_tree(3);
  rng::Rng rng(2);
  EXPECT_THROW(run_rit(inst.job, inst.asks, small_tree, RitConfig{}, rng),
               CheckFailure);
}

RitConfig completion_config() {
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  return cfg;
}

TEST(Rit, PaymentsExtendAuctionPayments) {
  ComfortableInstance inst(12);
  rng::Rng rng(3);
  const RitResult r =
      run_rit(inst.job, inst.asks, inst.tree, completion_config(), rng);
  ASSERT_TRUE(r.success);
  for (std::size_t j = 0; j < inst.asks.size(); ++j) {
    EXPECT_GE(r.payment[j], r.auction_payment[j]);
  }
  EXPECT_GE(r.total_payment(), r.total_auction_payment());
}

TEST(Rit, BudgetBoundHolds) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    ComfortableInstance inst(seed + 40);
    rng::Rng rng(seed + 41);
    const RitResult r =
        run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, rng);
    if (!r.success) continue;
    EXPECT_LE(r.total_payment(),
              2.0 * r.total_auction_payment() + 1e-9);
  }
}

TEST(Rit, SameSeedSameResult) {
  ComfortableInstance inst(13);
  rng::Rng a(77);
  rng::Rng b(77);
  const RitResult ra = run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, a);
  const RitResult rb = run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, b);
  EXPECT_EQ(ra.allocation, rb.allocation);
  EXPECT_EQ(ra.payment, rb.payment);
  EXPECT_EQ(ra.success, rb.success);
}

TEST(Rit, WorkspaceOverloadMatchesAllocatingOverload) {
  // The per-thread scratch reuse every sweep now relies on: same seed in,
  // bit-identical result out, with one workspace reused across instances.
  RitWorkspace ws;
  for (const std::uint64_t seed : {13u, 14u, 15u}) {
    ComfortableInstance inst(seed);
    rng::Rng a(seed * 31);
    rng::Rng b(seed * 31);
    const RitResult fresh =
        run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, a);
    RitResult reused;
    run_rit_into(inst.job, inst.asks, inst.tree, RitConfig{}, b, ws, reused);
    EXPECT_EQ(reused.success, fresh.success);
    EXPECT_EQ(reused.allocation, fresh.allocation);
    EXPECT_EQ(reused.auction_payment, fresh.auction_payment);
    EXPECT_EQ(reused.payment, fresh.payment);
    EXPECT_EQ(reused.probability_degraded, fresh.probability_degraded);
    EXPECT_DOUBLE_EQ(reused.achieved_probability, fresh.achieved_probability);
  }
}

TEST(Rit, AuctionPhaseWorkspaceOverloadMatches) {
  ComfortableInstance inst(16);
  RitWorkspace ws;
  rng::Rng a(99);
  rng::Rng b(99);
  const RitResult fresh =
      run_auction_phase(inst.job, inst.asks, RitConfig{}, a);
  RitResult reused;
  run_auction_phase_into(inst.job, inst.asks, RitConfig{}, b, ws, reused);
  EXPECT_EQ(reused.success, fresh.success);
  EXPECT_EQ(reused.allocation, fresh.allocation);
  EXPECT_EQ(reused.payment, fresh.payment);
}

TEST(Rit, AuctionPhaseOfRunRitMatchesStandalone) {
  // run_rit must consume the random stream exactly like run_auction_phase,
  // so paired-seed experiments can split the two series.
  ComfortableInstance inst(14);
  rng::Rng a(88);
  rng::Rng b(88);
  const RitResult full = run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, a);
  const RitResult phase1 = run_auction_phase(inst.job, inst.asks, RitConfig{}, b);
  EXPECT_EQ(full.allocation, phase1.allocation);
  EXPECT_EQ(full.auction_payment, phase1.auction_payment);
}

TEST(Rit, AuctionThenPaymentPhaseEqualsRunRitInto) {
  RitWorkspace ws;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    ComfortableInstance inst(seed);
    rng::Rng a(seed * 7);
    rng::Rng b(seed * 7);
    RitResult whole;
    run_rit_into(inst.job, inst.asks, inst.tree, completion_config(), a, ws,
                 whole);
    RitResult split;
    run_auction_phase_into(inst.job, inst.asks, completion_config(), b, ws,
                           split);
    run_payment_phase_into(inst.asks, inst.tree, completion_config(), ws,
                           split);
    ASSERT_TRUE(whole.success);
    EXPECT_EQ(split.success, whole.success);
    EXPECT_EQ(split.allocation, whole.allocation);
    EXPECT_EQ(split.auction_payment, whole.auction_payment);
    EXPECT_EQ(split.payment, whole.payment);
    // The payment phase draws nothing: both streams stand at the same spot.
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rit, PaymentPhaseLeavesAFailedResultAsItIs) {
  const Job job = Job::uniform(1, 1000);
  std::vector<Ask> asks{{TaskType{0}, 2, 1.0}, {TaskType{0}, 3, 2.0}};
  const auto tree = tree::flat_tree(2);
  RitWorkspace ws;
  rng::Rng rng(5);
  RitResult r;
  run_auction_phase_into(job, asks, RitConfig{}, rng, ws, r);
  ASSERT_FALSE(r.success);
  const RitResult before = r;
  run_payment_phase_into(asks, tree, RitConfig{}, ws, r);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.allocation, before.allocation);
  EXPECT_EQ(r.auction_payment, before.auction_payment);
  EXPECT_EQ(r.payment, before.payment);
}

TEST(Rit, PaymentPhaseRejectsTreeSizeMismatch) {
  ComfortableInstance inst(24);
  RitWorkspace ws;
  rng::Rng rng(6);
  RitResult r;
  run_auction_phase_into(inst.job, inst.asks, completion_config(), rng, ws, r);
  const auto small_tree = tree::flat_tree(3);
  EXPECT_THROW(
      run_payment_phase_into(inst.asks, small_tree, completion_config(), ws, r),
      CheckFailure);
}

TEST(Rit, FlatTreePaysExactlyAuctionPayments) {
  ComfortableInstance inst(15);
  const auto flat = tree::flat_tree(static_cast<std::uint32_t>(inst.asks.size()));
  rng::Rng rng(4);
  const RitResult r =
      run_rit(inst.job, inst.asks, flat, completion_config(), rng);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.payment, r.auction_payment);
}

TEST(Rit, UtilityAccessors) {
  RitResult r;
  r.allocation = {2};
  r.auction_payment = {5.0};
  r.payment = {7.0};
  EXPECT_DOUBLE_EQ(r.utility_of(0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(r.auction_utility_of(0, 1.0), 3.0);
}

TEST(Rit, AchievedProbabilityIsProductOfTypeBounds) {
  ComfortableInstance inst(17);
  rng::Rng rng(6);
  const RitResult r =
      run_auction_phase(inst.job, inst.asks, completion_config(), rng);
  double product = 1.0;
  for (const TypeAuctionInfo& info : r.type_info) {
    EXPECT_GE(info.achieved_bound, 0.0);
    EXPECT_LE(info.achieved_bound, 1.0);
    product *= info.achieved_bound;
  }
  EXPECT_NEAR(r.achieved_probability, product, 1e-12);
}

TEST(Rit, TheoreticalBudgetKeepsAchievedProbabilityAboveH) {
  // In a consensus-friendly regime (K_max << m_i), running within the
  // theoretical budget must keep the achieved bound at or above H.
  rng::Rng setup(77);
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < 3000; ++j) {
    asks.push_back(Ask{TaskType{0},
                       static_cast<std::uint32_t>(setup.uniform_int(1, 2)),
                       setup.uniform_real_left_open(0.0, 10.0)});
  }
  const Job job(std::vector<std::uint32_t>{1000});
  RitConfig cfg;  // theoretical budget
  cfg.h = 0.8;
  rng::Rng rng(78);
  const RitResult r = run_auction_phase(job, asks, cfg, rng);
  EXPECT_FALSE(r.probability_degraded);
  EXPECT_GE(r.achieved_probability, cfg.h - 1e-9);
}

TEST(Rit, StallLimitTerminatesHopelessTypes) {
  // One lone supplier for a type: its single ask can never clear the
  // consensus hurdle (see cra_test), so completion mode would spin forever
  // without the stall limit.
  const Job job(std::vector<std::uint32_t>{2});
  std::vector<Ask> asks{{TaskType{0}, 1, 1.0}};
  RitConfig cfg = completion_config();
  cfg.stall_round_limit = 25;
  rng::Rng rng(9);
  const RitResult r = run_auction_phase(job, asks, cfg, rng);
  EXPECT_FALSE(r.success);
  ASSERT_EQ(r.type_info.size(), 1u);
  EXPECT_LE(r.type_info[0].rounds_used, 25u + 2u);
}

TEST(Rit, OrderStatisticModeFlagsDegradedProbability) {
  ComfortableInstance inst(18);
  RitConfig cfg = completion_config();
  cfg.price_mode = PriceMode::kOrderStatistic;
  rng::Rng rng(10);
  const RitResult r = run_auction_phase(inst.job, inst.asks, cfg, rng);
  EXPECT_TRUE(r.probability_degraded);
}

TEST(Rit, ZeroDemandTypesAreSkippedEntirely) {
  std::vector<Ask> asks{{TaskType{0}, 2, 1.0},
                        {TaskType{0}, 2, 2.0},
                        {TaskType{0}, 2, 3.0},
                        {TaskType{1}, 2, 1.0}};
  const Job job(std::vector<std::uint32_t>{2, 0});
  rng::Rng rng(11);
  const RitResult r = run_auction_phase(job, asks, completion_config(), rng);
  ASSERT_EQ(r.type_info.size(), 2u);
  EXPECT_EQ(r.type_info[1].rounds_used, 0u);
  EXPECT_EQ(r.type_info[1].achieved_bound, 1.0);
  EXPECT_EQ(r.allocation[3], 0u);  // type-1 supplier untouched
  // eta uses the count of demanded types (1), not total types (2).
  EXPECT_NEAR(r.eta, 0.8, 1e-12);
}

TEST(Rit, SuccessfulRunAllocatesExactlyTheJob) {
  ComfortableInstance inst(16);
  rng::Rng rng(5);
  const RitResult r =
      run_rit(inst.job, inst.asks, inst.tree, completion_config(), rng);
  ASSERT_TRUE(r.success);
  std::uint64_t total = 0;
  for (std::uint32_t x : r.allocation) total += x;
  EXPECT_EQ(total, inst.job.total_tasks());
}

// --- Run-form auction against the testkit oracle ----------------------------
// The auction phase hands CRA one run per user with capacity left and
// writes back only the winners. The oracle expands every unit ask and
// sorts them, so agreeing with it field by field (and draw for draw, via
// the same seed) pins the run form on the books where it differs most.

/// Two task types, users alternating between them, k ~ U{1..20}. With
/// probability 1/2 a user bids the value of the previous user of its type,
/// so neighbouring runs in a type's book tie and stay separate runs. Each
/// type's demand is `band` / 2 of its unit supply, so the first round's
/// q + m_i is about `band` of |alpha|; band >= 1 demands 1000 times the
/// supply. `demand` > 0 overrides the computed demand.
testkit::FuzzCase per_user_book_case(std::uint32_t users, double band,
                                     std::uint32_t demand = 0) {
  rng::Rng rng(users);
  testkit::FuzzCase c;
  std::uint64_t supply[2] = {0, 0};
  double last_value[2] = {0.0, 0.0};
  for (std::uint32_t j = 0; j < users; ++j) {
    const std::uint32_t t = j % 2;
    if (last_value[t] == 0.0 || !rng.bernoulli(0.5)) {
      last_value[t] = rng.uniform_real_left_open(0.0, 10.0);
    }
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, 20));
    supply[t] += k;
    c.asks.push_back(Ask{TaskType{t}, k, last_value[t]});
    c.costs.push_back(last_value[t]);
    c.parents.push_back(static_cast<std::uint32_t>(rng.uniform_index(j + 1)));
  }
  for (const std::uint64_t units : supply) {
    const double m = band >= 1.0 ? 1000.0 * static_cast<double>(units)
                                 : band * static_cast<double>(units) / 2;
    c.demand.push_back(demand > 0 ? demand
                                  : std::max<std::uint32_t>(
                                        1, static_cast<std::uint32_t>(m)));
  }
  c.config.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  return c;
}

/// Checks `c` against the oracle at `seeds` mechanism seeds; returns the
/// tasks the auction phase allocated over all of them.
std::uint64_t expect_oracle_agrees(testkit::FuzzCase c, int seeds) {
  std::uint64_t allocated = 0;
  for (int s = 0; s < seeds; ++s) {
    c.mech_seed = 7000 + static_cast<std::uint64_t>(s);
    const testkit::CaseOutcome outcome = testkit::check_case(c);
    EXPECT_TRUE(outcome.ok) << "seed " << c.mech_seed << ": "
                            << outcome.signature << " | " << outcome.details;
    RitConfig keep = c.config;
    keep.zero_on_failure = false;
    rng::Rng rng(c.mech_seed);
    for (const std::uint32_t x :
         run_auction_phase(Job(c.demand), c.asks, keep, rng).allocation) {
      allocated += x;
    }
  }
  return allocated;
}

TEST(RunAuction, BandRatiosMatchOracleWithNeighbouringTies) {
  for (const double band : {0.01, 0.14, 1.0}) {
    EXPECT_GT(expect_oracle_agrees(per_user_book_case(400, band), 6), 0u)
        << "band " << band;
  }
}

TEST(RunAuction, SmallestBudgetMatchesOracle) {
  // m_i = 1 is the smallest budget RIT forms: q + m_i = 2 (a budget of 1
  // needs q = 0, which runs no round; cra_test covers it directly).
  EXPECT_GT(expect_oracle_agrees(per_user_book_case(200, 0.0, 1), 10), 0u);
}

TEST(RunAuction, EmptySampleUnderBothPoliciesMatchesOracle) {
  testkit::FuzzCase c = per_user_book_case(60, 1.0);
  c.config.empty_sample = EmptySamplePolicy::kAllAsks;
  EXPECT_GT(expect_oracle_agrees(c, 6), 0u);
  c.config.empty_sample = EmptySamplePolicy::kNoWinners;
  expect_oracle_agrees(c, 6);
}

TEST(RunAuction, OrderStatisticMatchesOracle) {
  testkit::FuzzCase c = per_user_book_case(300, 0.14);
  c.config.price_mode = PriceMode::kOrderStatistic;
  EXPECT_GT(expect_oracle_agrees(c, 6), 0u);
}

}  // namespace
}  // namespace rit::core
