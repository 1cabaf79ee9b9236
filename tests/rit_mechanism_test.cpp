#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "testkit/harness.h"
#include "testkit/oracle.h"
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

/// The auction phase alone: RIT on a flat tree, whose payments are the
/// auction payments bit for bit (Rit.FlatTreePaysExactlyAuctionPayments).
RitResult run_auction(const Job& job, std::span<const Ask> asks,
                      const RitConfig& cfg, rng::Rng& rng) {
  const auto n = static_cast<std::uint32_t>(asks.size());
  return run_rit(job, asks, tree::flat_tree(n), cfg, rng);
}

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

TEST(RoundBudget, VacuousBoundStillRunsOneRound) {
  // 2*K_max >= m_i makes the Lemma 6.2 bound vacuous. The formula alone
  // would allow zero rounds; the clamp makes the theoretical budget spend
  // exactly one CRA round on the type instead (DESIGN.md ambiguity #3).
  const Job job(std::vector<std::uint32_t>{4});
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < 6; ++j) {
    asks.push_back(Ask{TaskType{0}, 3, 1.0 + j});
  }
  RitConfig cfg;
  cfg.zero_on_failure = false;
  rng::Rng rng(5);
  const RitResult r = run_auction(job, asks, cfg, rng);
  ASSERT_EQ(r.type_info.size(), 1u);
  EXPECT_TRUE(r.type_info[0].budget.degraded);
  EXPECT_EQ(r.type_info[0].budget.max_rounds, 1u);
  EXPECT_EQ(r.type_info[0].rounds_used, 1u);
  EXPECT_TRUE(r.probability_degraded);
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
    const RitResult r = run_auction(inst.job, inst.asks, cfg, rng);
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
  const RitResult r = run_auction(inst.job, inst.asks, cfg, rng);
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
    const RitResult r = run_auction(inst.job, inst.asks, cfg, rng);
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
  const RitResult r = run_auction(inst.job, inst.asks, RitConfig{}, rng);
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
  const RitResult r = run_auction(inst.job, inst.asks, cfg, rng);
  EXPECT_NEAR(r.eta, 0.8, 1e-12);  // 2 demanded types: 0.64^(1/2)
}

TEST(AuctionPhase, FailureZeroesEverything) {
  // Demand far above total supply: must fail, and fail closed.
  const Job job = Job::uniform(1, 1000);
  std::vector<Ask> asks{{TaskType{0}, 2, 1.0}, {TaskType{0}, 3, 2.0}};
  rng::Rng rng(7);
  const RitResult r = run_auction(job, asks, RitConfig{}, rng);
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
  const RitResult r = run_auction(job, asks, RitConfig{}, rng);
  ASSERT_EQ(r.type_info.size(), 1u);
  EXPECT_EQ(r.type_info[0].demanded, 1000u);
  EXPECT_LT(r.type_info[0].allocated, 1000u);
}

TEST(AuctionPhase, KMaxIsTheObservedMaximum) {
  // K_max is always the largest quantity any ask claims: raising one ask's
  // quantity raises it, and the per-round bound of every type falls.
  ComfortableInstance inst(9);
  rng::Rng rng(99);
  const RitResult r = run_auction(inst.job, inst.asks, RitConfig{}, rng);
  EXPECT_EQ(r.k_max, observed_k_max(inst.asks));
  EXPECT_EQ(r.k_max, 3u);
  inst.asks[0].quantity = 17;
  rng::Rng again(99);
  const RitResult big =
      run_auction(inst.job, inst.asks, RitConfig{}, again);
  EXPECT_EQ(big.k_max, 17u);
  ASSERT_EQ(big.type_info.size(), r.type_info.size());
  for (std::size_t t = 0; t < r.type_info.size(); ++t) {
    EXPECT_LT(big.type_info[t].budget.per_round_bound,
              r.type_info[t].budget.per_round_bound);
  }
}

TEST(AuctionPhase, RejectsBadH) {
  ComfortableInstance inst(10);
  rng::Rng rng(1);
  RitConfig cfg;
  cfg.h = 1.0;
  EXPECT_THROW(run_auction(inst.job, inst.asks, cfg, rng), CheckFailure);
  cfg.h = 0.0;
  EXPECT_THROW(run_auction(inst.job, inst.asks, cfg, rng), CheckFailure);
}

TEST(AuctionPhase, RejectsBadBases) {
  ComfortableInstance inst(10);
  rng::Rng rng(1);
  RitConfig cfg;
  cfg.consensus_log_base = 1.0;  // would flip the sign of the bound term
  EXPECT_THROW(run_auction(inst.job, inst.asks, cfg, rng), CheckFailure);
  cfg = RitConfig{};
  cfg.discount_base = 1.0;
  EXPECT_THROW(run_auction(inst.job, inst.asks, cfg, rng), CheckFailure);
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

TEST(Rit, AuctionPhaseOfRunRitMatchesStandalone) {
  // run_rit must consume the random stream exactly like the auction phase
  // alone, so paired-seed experiments can split the two series.
  ComfortableInstance inst(14);
  rng::Rng a(88);
  rng::Rng b(88);
  const RitResult full = run_rit(inst.job, inst.asks, inst.tree, RitConfig{}, a);
  RitWorkspace ws;
  RitResult phase1;
  run_auction_phase_into(inst.job, inst.asks, RitConfig{}, b, ws, phase1);
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
  // The auction-phase tests run RIT on a flat tree (run_auction): its
  // payments must be the auction payments bit for bit, and the rest of
  // the result and the stream must be run_auction_phase_into's.
  ComfortableInstance inst(15);
  RitConfig cfg = completion_config();
  cfg.record_round_trace = true;
  rng::Rng a(4);
  rng::Rng b(4);
  const RitResult flat = run_auction(inst.job, inst.asks, cfg, a);
  RitWorkspace ws;
  RitResult phase1;
  run_auction_phase_into(inst.job, inst.asks, cfg, b, ws, phase1);
  ASSERT_TRUE(flat.success);
  EXPECT_EQ(phase1.success, flat.success);
  EXPECT_EQ(flat.allocation, phase1.allocation);
  ASSERT_EQ(flat.payment.size(), phase1.auction_payment.size());
  for (std::size_t j = 0; j < flat.payment.size(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.payment[j]),
              std::bit_cast<std::uint64_t>(flat.auction_payment[j]))
        << "user " << j;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(flat.auction_payment[j]),
              std::bit_cast<std::uint64_t>(phase1.auction_payment[j]))
        << "user " << j;
  }
  ASSERT_EQ(flat.type_info.size(), phase1.type_info.size());
  for (std::size_t t = 0; t < flat.type_info.size(); ++t) {
    const TypeAuctionInfo& x = flat.type_info[t];
    const TypeAuctionInfo& y = phase1.type_info[t];
    EXPECT_EQ(x.allocated, y.allocated) << "type " << t;
    EXPECT_EQ(x.rounds_used, y.rounds_used) << "type " << t;
    EXPECT_EQ(x.budget.max_rounds, y.budget.max_rounds) << "type " << t;
    EXPECT_EQ(x.achieved_bound, y.achieved_bound) << "type " << t;
    ASSERT_EQ(x.rounds.size(), y.rounds.size()) << "type " << t;
    for (std::size_t r = 0; r < x.rounds.size(); ++r) {
      EXPECT_EQ(x.rounds[r].clearing_price, y.rounds[r].clearing_price);
      EXPECT_EQ(x.rounds[r].winners, y.rounds[r].winners);
    }
  }
  EXPECT_EQ(flat.achieved_probability, phase1.achieved_probability);
  EXPECT_EQ(a.next_u64(), b.next_u64());
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
      run_auction(inst.job, inst.asks, completion_config(), rng);
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
  const RitResult r = run_auction(job, asks, cfg, rng);
  EXPECT_FALSE(r.probability_degraded);
  EXPECT_GE(r.achieved_probability, cfg.h - 1e-9);
}

TEST(Rit, StallLimitTerminatesHopelessTypes) {
  // One lone supplier for a type: its single ask can never clear the
  // consensus hurdle (see cra_test), so completion mode would spin forever
  // without the stall limit.
  const Job job(std::vector<std::uint32_t>{2});
  std::vector<Ask> asks{{TaskType{0}, 1, 1.0}};
  rng::Rng rng(9);
  const RitResult r = run_auction(job, asks, completion_config(), rng);
  EXPECT_FALSE(r.success);
  ASSERT_EQ(r.type_info.size(), 1u);
  EXPECT_LE(r.type_info[0].rounds_used, kStallRoundLimit + 2u);
}

TEST(Rit, OrderStatisticModeFlagsDegradedProbability) {
  ComfortableInstance inst(18);
  RitConfig cfg = completion_config();
  cfg.price_mode = PriceMode::kOrderStatistic;
  rng::Rng rng(10);
  const RitResult r = run_auction(inst.job, inst.asks, cfg, rng);
  EXPECT_TRUE(r.probability_degraded);
}

TEST(Rit, ZeroDemandTypesAreSkippedEntirely) {
  std::vector<Ask> asks{{TaskType{0}, 2, 1.0},
                        {TaskType{0}, 2, 2.0},
                        {TaskType{0}, 2, 3.0},
                        {TaskType{1}, 2, 1.0}};
  const Job job(std::vector<std::uint32_t>{2, 0});
  rng::Rng rng(11);
  const RitResult r = run_auction(job, asks, completion_config(), rng);
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
         run_auction(Job(c.demand), c.asks, keep, rng).allocation) {
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

TEST(RunAuction, EmptySampleMatchesOracle) {
  EXPECT_GT(expect_oracle_agrees(per_user_book_case(60, 1.0), 6), 0u);
}

TEST(RunAuction, OrderStatisticMatchesOracle) {
  testkit::FuzzCase c = per_user_book_case(300, 0.14);
  c.config.price_mode = PriceMode::kOrderStatistic;
  EXPECT_GT(expect_oracle_agrees(c, 6), 0u);
}

// --- run_rit_into on the book shapes of the round's band gather ----------
// Each round gathers its type's value order only through its threshold s,
// and reads the whole order for a tied type, an empty sample or the
// order-statistic arm. run_rit_into with one reused workspace must agree
// with the oracle on each of those shapes: allocations, auction payments
// and rounds bit for bit, tree payments within diff_results' tolerance.

/// Two types, k ~ U{1..20}, each type's demand `share` of its unit
/// supply (`share` >= 1 demands 1000 times the supply). Values are
/// continuous in (0, 10], except that users past index `tie_from` bid one
/// of `tie_levels` values above 9 (no ties when `tie_levels` is 0), and a
/// `grid` > 0 rounds every value up to a multiple of it.
testkit::FuzzCase shaped_case(std::uint32_t users, double share,
                              std::uint32_t tie_from, int tie_levels,
                              double grid, std::uint64_t seed) {
  rng::Rng rng(seed);
  testkit::FuzzCase c;
  std::uint64_t supply[2] = {0, 0};
  for (std::uint32_t j = 0; j < users; ++j) {
    const std::uint32_t t = j % 2;
    double v = rng.uniform_real_left_open(0.0, 10.0);
    if (j >= tie_from && tie_levels > 0) {
      v = 9.0 + static_cast<double>(rng.uniform_int(1, tie_levels)) /
                    static_cast<double>(tie_levels);
    }
    if (grid > 0.0) v = std::ceil(v / grid) * grid;
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(1, 20));
    supply[t] += k;
    c.asks.push_back(Ask{TaskType{t}, k, v});
    c.costs.push_back(v);
    c.parents.push_back(static_cast<std::uint32_t>(rng.uniform_index(j + 1)));
  }
  for (const std::uint64_t units : supply) {
    const double m = share >= 1.0 ? 1000.0 * static_cast<double>(units)
                                  : share * static_cast<double>(units);
    c.demand.push_back(std::max<std::uint32_t>(1, static_cast<std::uint32_t>(m)));
  }
  c.config.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  c.config.zero_on_failure = false;
  return c;
}

/// run_rit_into through `ws` against the oracle at `seeds` seeds; returns
/// the rounds run over all of them.
std::uint32_t expect_run_rit_into_matches_oracle(testkit::FuzzCase c,
                                                 int seeds, RitWorkspace& ws) {
  std::vector<std::uint32_t> tree_parents(c.parents.size() + 1, 0);
  for (std::size_t j = 0; j < c.parents.size(); ++j) {
    tree_parents[j + 1] = c.parents[j];
  }
  const tree::IncentiveTree tree(tree_parents);
  std::uint32_t rounds = 0;
  RitResult got;
  for (int s = 0; s < seeds; ++s) {
    c.mech_seed = 7200 + static_cast<std::uint64_t>(s);
    const RitResult want = testkit::oracle_run_rit(c);
    rng::Rng rng(c.mech_seed);
    run_rit_into(Job(c.demand), c.asks, tree, c.config, rng, ws, got);
    EXPECT_EQ(got.allocation, want.allocation) << "seed " << c.mech_seed;
    EXPECT_EQ(got.auction_payment.size(), want.auction_payment.size());
    if (got.auction_payment.size() != want.auction_payment.size()) break;
    for (std::size_t j = 0; j < got.auction_payment.size(); ++j) {
      EXPECT_EQ(got.auction_payment[j], want.auction_payment[j])
          << "seed " << c.mech_seed << " user " << j;
    }
    EXPECT_EQ(got.type_info.size(), want.type_info.size());
    if (got.type_info.size() != want.type_info.size()) break;
    for (std::size_t t = 0; t < got.type_info.size(); ++t) {
      EXPECT_EQ(got.type_info[t].rounds_used, want.type_info[t].rounds_used)
          << "seed " << c.mech_seed << " type " << t;
      rounds += got.type_info[t].rounds_used;
    }
    const testkit::OracleDiff diff = testkit::diff_results(got, want);
    EXPECT_TRUE(diff.match) << "seed " << c.mech_seed << ": " << diff.field
                            << " " << diff.detail;
  }
  return rounds;
}

TEST(RitBandGather, NoTiesMatchesOracle) {
  RitWorkspace ws;
  for (const double share : {0.01, 0.07, 0.4}) {
    EXPECT_GT(expect_run_rit_into_matches_oracle(
                  shaped_case(600, share, 600, 0, 0.0, 31), 4, ws),
              0u)
        << "share " << share;
  }
}

TEST(RitBandGather, TiesOnlyAboveTheBandMatchOracle) {
  // The last fifth of the users tie on ten values above 9; a demand of a
  // few percent keeps the band below them until the cheap users run out.
  RitWorkspace ws;
  EXPECT_GT(expect_run_rit_into_matches_oracle(
                shaped_case(800, 0.03, 640, 10, 0.0, 32), 4, ws),
            0u);
}

TEST(RitBandGather, TiesInsideTheBandMatchOracle) {
  RitWorkspace ws;
  for (const double share : {0.05, 0.5}) {
    EXPECT_GT(expect_run_rit_into_matches_oracle(
                  shaped_case(600, share, 600, 0, 0.25, 33), 4, ws),
              0u)
        << "share " << share;
  }
}

TEST(RitBandGather, EmptySampleMatchesOracle) {
  RitWorkspace ws;
  for (const double grid : {0.0, 0.5}) {
    EXPECT_GT(expect_run_rit_into_matches_oracle(
                  shaped_case(80, 1.0, 80, 0, grid, 34), 4, ws),
              0u)
        << "grid " << grid;
  }
}

TEST(RitBandGather, OrderStatisticMatchesOracle) {
  RitWorkspace ws;
  for (const double grid : {0.0, 0.25}) {
    testkit::FuzzCase c = shaped_case(500, 0.1, 500, 0, grid, 35);
    c.config.price_mode = PriceMode::kOrderStatistic;
    EXPECT_GT(expect_run_rit_into_matches_oracle(c, 4, ws), 0u)
        << "grid " << grid;
  }
}

TEST(RitBandGather, TypeDownToItsLastLiveUserMatchesOracle) {
  // Demand equal to the whole supply: each type runs until its last live
  // users, then stalls on a lone ask that cannot clear the consensus
  // hurdle, with and without ties among the exhausted users.
  RitWorkspace ws;
  for (const double grid : {0.0, 0.5}) {
    testkit::FuzzCase c = shaped_case(60, 0.0, 60, 0, grid, 36);
    std::uint32_t supply[2] = {0, 0};
    for (const Ask& a : c.asks) supply[a.type.value] += a.quantity;
    c.demand = {supply[0], supply[1]};
    EXPECT_GT(expect_run_rit_into_matches_oracle(c, 4, ws), 0u)
        << "grid " << grid;
  }
}

/// The users of `r` that won in two or more rounds: a single-round winner
/// of x tasks is paid some round's price of its type added x times from
/// 0.0, so a payment that no round's price gives is a repeat winner's.
std::uint32_t repeat_winners(std::span<const Ask> asks, const RitResult& r) {
  std::uint32_t count = 0;
  for (std::size_t j = 0; j < asks.size(); ++j) {
    if (r.allocation[j] == 0) continue;
    bool one_round = false;
    for (const RoundTrace& round : r.type_info[asks[j].type.value].rounds) {
      double paid = 0.0;
      for (std::uint32_t c = 0; c < r.allocation[j]; ++c) {
        paid += round.clearing_price;
      }
      one_round |= paid == r.auction_payment[j];
    }
    count += one_round ? 0 : 1;
  }
  return count;
}

// The settle step credits a first-time winner from a per-round table of
// price sums and a repeat winner task by task; both must equal the
// oracle's one += per won task exactly, not within a tolerance, on books
// where users win in several rounds.
TEST(RunAuction, PaymentsEqualOraclePerTaskSumsBitForBit) {
  std::uint32_t repeats = 0;
  for (const double band : {0.14, 1.0}) {
    testkit::FuzzCase c = per_user_book_case(400, band);
    c.config.zero_on_failure = false;
    c.config.record_round_trace = true;
    for (std::uint64_t seed = 7100; seed < 7106; ++seed) {
      c.mech_seed = seed;
      const RitResult want = testkit::oracle_run_rit(c);
      rng::Rng rng(seed);
      const RitResult got =
          run_auction(Job(c.demand), c.asks, c.config, rng);
      ASSERT_EQ(got.allocation, want.allocation) << "seed " << seed;
      for (std::size_t j = 0; j < c.asks.size(); ++j) {
        EXPECT_EQ(got.auction_payment[j], want.auction_payment[j])
            << "band " << band << " seed " << seed << " user " << j;
      }
      repeats += repeat_winners(c.asks, got);
    }
  }
  EXPECT_GT(repeats, 0u);
}

// --- Stream pin on tie-heavy books ------------------------------------------
// The perfbench digests and the pinned CSVs draw continuous costs, so no
// tie group of several users ever reaches CRA's phase 2 on them. These
// books round every value to a coarse or a fine grid, so most of a type's
// band sits in multi-user tie groups whose shuffles are drawn for real.

/// FNV-1a over 64-bit words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Mixes one run_rit_into outcome on a tie-heavy book into `hash`: four
/// types, k ~ U{1..20}, values in (0, 10] rounded up to a multiple of
/// `quantum`, and each type's demand `share` of its unit supply.
void mix_tie_heavy_run(std::uint32_t users, double quantum, double share,
                       PriceMode mode, Fnv1a& hash) {
  rng::Rng gen(users + static_cast<std::uint64_t>(1.0 / quantum));
  std::vector<Ask> asks;
  std::vector<std::uint64_t> supply(4, 0);
  for (std::uint32_t j = 0; j < users; ++j) {
    const auto t = static_cast<std::uint32_t>(gen.uniform_index(4));
    const auto k = static_cast<std::uint32_t>(gen.uniform_int(1, 20));
    const double v =
        std::ceil(gen.uniform_real_left_open(0.0, 10.0) / quantum) * quantum;
    asks.push_back(Ask{TaskType{t}, k, v});
    supply[t] += k;
  }
  std::vector<std::uint32_t> demand;
  for (const std::uint64_t units : supply) {
    demand.push_back(static_cast<std::uint32_t>(
        share * static_cast<double>(units)));
  }
  const tree::IncentiveTree tree = tree::random_recursive_tree(users, 0.2, gen);
  RitConfig cfg = completion_config();
  cfg.price_mode = mode;
  cfg.zero_on_failure = false;
  rng::Rng rng(users * 7 + 1);
  RitWorkspace ws;
  RitResult res;
  run_rit_into(Job(demand), asks, tree, cfg, rng, ws, res);
  for (const std::uint32_t a : res.allocation) hash.mix(a);
  for (const double p : res.auction_payment) {
    hash.mix(std::bit_cast<std::uint64_t>(p));
  }
  for (const double p : res.payment) hash.mix(std::bit_cast<std::uint64_t>(p));
  hash.mix(rng.next_u64());
}

TEST(RitStream, TieHeavyOutputPinned) {
#if defined(__clang__) || !defined(__GNUC__)
  GTEST_SKIP() << "pinned for GCC builds; another compiler may contract "
                  "floating point differently";
#endif
  Fnv1a hash;
  for (const std::uint32_t users : {2000u, 20000u}) {
    for (const double quantum : {0.5, 0.01}) {
      for (const double share : {0.79, 0.05}) {
        mix_tie_heavy_run(users, quantum, share, PriceMode::kConsensus, hash);
      }
      mix_tie_heavy_run(users, quantum, 0.05, PriceMode::kOrderStatistic,
                        hash);
    }
  }
  EXPECT_EQ(hash.h, 0x921ff7fd8551045eULL);
}

}  // namespace
}  // namespace rit::core
