#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "core/extract.h"
#include "rng/rng.h"
#include "testkit/oracle.h"

namespace rit::core {
namespace {

// The paper's own worked example after Algorithm 2:
// A = ((tau1,2,3); (tau2,3,4); (tau1,4,2)) and Extract(tau1, A) yields
// alpha = (3,3,2,2,2,2) with lambda = (1,1,3,3,3,3) (1-based users).
TEST(Extract, PaperWorkedExample) {
  const std::vector<Ask> asks{
      {TaskType{0}, 2, 3.0},
      {TaskType{1}, 3, 4.0},
      {TaskType{0}, 4, 2.0},
  };
  const ExtractedAsks e = extract(TaskType{0}, asks);
  EXPECT_EQ(e.values, (std::vector<double>{3, 3, 2, 2, 2, 2}));
  // 0-based owners: users 0 and 2.
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{0, 0, 2, 2, 2, 2}));
}

TEST(Extract, OtherTypeOfPaperExample) {
  const std::vector<Ask> asks{
      {TaskType{0}, 2, 3.0},
      {TaskType{1}, 3, 4.0},
      {TaskType{0}, 4, 2.0},
  };
  const ExtractedAsks e = extract(TaskType{1}, asks);
  EXPECT_EQ(e.values, (std::vector<double>{4, 4, 4}));
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(Extract, NoMatchingTypeGivesEmpty) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 3.0}};
  const ExtractedAsks e = extract(TaskType{5}, asks);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.size(), 0u);
}

TEST(Extract, EmptyAskVector) {
  const ExtractedAsks e = extract(TaskType{0}, std::vector<Ask>{});
  EXPECT_TRUE(e.empty());
}

// Extract over the remaining quantities k'_j (Alg. 2 in a later CRA
// round), as the oracle's Extract builds it for extract_runs_into and the
// fuzzer to be checked against.
TEST(ExtractRemaining, UsesRemainingNotAskedQuantity) {
  const std::vector<Ask> asks{
      {TaskType{0}, 5, 1.5},
      {TaskType{0}, 3, 2.5},
  };
  const std::vector<std::uint32_t> remaining{2, 0};
  const testkit::NaiveAlpha e =
      testkit::naive_extract(TaskType{0}, asks, remaining);
  EXPECT_EQ(e.values, (std::vector<double>{1.5, 1.5}));
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{0, 0}));
}

TEST(ExtractRemaining, ZeroRemainingEverywhereGivesEmpty) {
  const std::vector<Ask> asks{{TaskType{0}, 5, 1.5}};
  const std::vector<std::uint32_t> remaining{0};
  EXPECT_TRUE(
      testkit::naive_extract(TaskType{0}, asks, remaining).values.empty());
}

TEST(ExtractRemaining, RejectsRemainingAboveAsked) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}};
  const std::vector<std::uint32_t> remaining{3};
  EXPECT_THROW(testkit::naive_extract(TaskType{0}, asks, remaining),
               CheckFailure);
}

TEST(ExtractRemaining, RejectsSizeMismatch) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}};
  const std::vector<std::uint32_t> remaining{1, 1};
  EXPECT_THROW(testkit::naive_extract(TaskType{0}, asks, remaining),
               CheckFailure);
}

TEST(Extract, PreservesSubmissionOrder) {
  const std::vector<Ask> asks{
      {TaskType{0}, 1, 9.0},
      {TaskType{0}, 1, 1.0},
      {TaskType{0}, 1, 5.0},
  };
  const ExtractedAsks e = extract(TaskType{0}, asks);
  EXPECT_EQ(e.values, (std::vector<double>{9, 1, 5}));
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{0, 1, 2}));
}

/// The allocation that leaves asks[j] with remaining[j] units.
std::vector<std::uint32_t> allocated(
    const std::vector<Ask>& asks,
    const std::vector<std::uint32_t>& remaining) {
  std::vector<std::uint32_t> allocation(asks.size());
  for (std::size_t j = 0; j < asks.size(); ++j) {
    allocation[j] = asks[j].quantity - remaining[j];
  }
  return allocation;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The runs the book has put in value order so far.
std::vector<std::uint32_t> ordered_runs(const ExtractedRuns& book) {
  return {book.by_value.begin(), book.by_value.begin() + book.ordered};
}

/// The book's runs in ascending (value, run) order, from a stable sort.
std::vector<std::uint32_t> stable_run_order(const ExtractedRuns& book) {
  std::vector<std::uint32_t> order(book.runs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return book.runs[a].value < book.runs[b].value;
                   });
  return order;
}

/// extract_runs_into on `allocation` must lay out the unit vector that
/// the oracle's Extract (testkit::naive_extract) builds from the remaining
/// quantities, value order included: run r expands to len copies of its value and owner, |alpha|
/// and the longest run are the expansion's, and the whole value order
/// lists the runs as a stable sort by value does.
void expect_runs_match_naive_extract(
    const std::vector<Ask>& asks, AskTypeIndex& index,
    const std::vector<std::uint32_t>& allocation) {
  std::vector<std::uint32_t> remaining(asks.size());
  for (std::size_t j = 0; j < asks.size(); ++j) {
    remaining[j] = asks[j].quantity - allocation[j];
  }
  ExtractedRuns runs;
  for (std::uint32_t t = 0; t < index.num_types(); ++t) {
    extract_runs_into(TaskType{t}, index, allocation, runs);
    ASSERT_EQ(runs.runs.size(), runs.owner.size());
    ExtractedAsks expanded;
    for (std::size_t r = 0; r < runs.runs.size(); ++r) {
      const AskRun& run = runs.runs[r];
      EXPECT_GT(run.len, 0u);
      EXPECT_EQ(run.start, expanded.size());
      EXPECT_EQ(run.len, remaining[runs.owner[r]]);
      expanded.values.insert(expanded.values.end(), run.len, run.value);
      expanded.owner.insert(expanded.owner.end(), run.len, runs.owner[r]);
    }
    const testkit::NaiveAlpha want =
        testkit::naive_extract(TaskType{t}, asks, remaining);
    EXPECT_EQ(expanded.values, want.values) << "type " << t;
    EXPECT_EQ(expanded.owner, want.owner) << "type " << t;
    EXPECT_EQ(runs.units, expanded.size()) << "type " << t;
    std::uint32_t max_len = 1;
    for (const AskRun& run : runs.runs) max_len = std::max(max_len, run.len);
    EXPECT_EQ(runs.max_len, max_len) << "type " << t;
    EXPECT_EQ(runs.ordered, 0u) << "type " << t;
    EXPECT_EQ(runs.order_through(kInf), runs.runs.size()) << "type " << t;
    EXPECT_EQ(ordered_runs(runs), stable_run_order(runs)) << "type " << t;
  }
}

// The run form lays out exactly the unit vector the oracle's Extract builds:
// expanding each run to len copies of its value and owner must give alpha
// and lambda back.
TEST(ExtractRuns, ExpandsToTheUnitVectorOfNaiveExtract) {
  const std::vector<Ask> asks{
      {TaskType{1}, 4, 2.0}, {TaskType{0}, 2, 3.0}, {TaskType{1}, 3, 2.0},
      {TaskType{0}, 5, 1.0}, {TaskType{1}, 1, 7.5}, {TaskType{1}, 6, 4.0},
  };
  const std::vector<std::uint32_t> remaining{4, 0, 2, 5, 0, 6};
  const std::vector<std::uint32_t> allocation = allocated(asks, remaining);
  AskTypeIndex index;
  index.build(2, asks);
  expect_runs_match_naive_extract(asks, index, allocation);
  ExtractedRuns runs;
  // Users 0 and 2 bid the same value: they stay two runs.
  extract_runs_into(TaskType{1}, index, allocation, runs);
  ASSERT_EQ(runs.runs.size(), 3u);
  EXPECT_EQ(runs.owner, (std::vector<std::uint32_t>{0, 2, 5}));
}

TEST(ExtractRuns, RejectsAllocationAboveAsked) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}, {TaskType{0}, 4, 2.0}};
  AskTypeIndex index;
  index.build(1, asks);
  ExtractedRuns runs;
  const std::vector<std::uint32_t> allocation{1, 5};
  EXPECT_THROW(extract_runs_into(TaskType{0}, index, allocation, runs),
               CheckFailure);
}

TEST(ExtractRuns, RejectsAllocationSizeMismatch) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}, {TaskType{0}, 4, 2.0}};
  AskTypeIndex index;
  index.build(1, asks);
  ExtractedRuns runs;
  const std::vector<std::uint32_t> allocation{1};
  EXPECT_THROW(extract_runs_into(TaskType{0}, index, allocation, runs),
               CheckFailure);
}

// --- The per-auction value order ------------------------------------------
// AskTypeIndex::build scatters each type's slots into value buckets once
// per auction, and sort_through sorts them as far as a round reads;
// every round's ExtractedRuns::by_value is that order over the live runs.

/// Sorts every type through and checks index.by_value against a per-type
/// std::stable_sort of the slots by value.
void expect_stable_value_order(AskTypeIndex& index) {
  ASSERT_EQ(index.by_value.size(), index.user.size());
  for (std::uint32_t t = 0; t < index.num_types(); ++t) {
    EXPECT_EQ(index.sort_through(t, kInf), index.offsets[t + 1]);
    std::vector<std::uint32_t> want(index.offsets[t + 1] - index.offsets[t]);
    std::iota(want.begin(), want.end(), index.offsets[t]);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return index.value[a] < index.value[b];
                     });
    const std::vector<std::uint32_t> got(
        index.by_value.begin() + index.offsets[t],
        index.by_value.begin() + index.offsets[t + 1]);
    EXPECT_EQ(got, want) << "type " << t;
  }
}

std::vector<Ask> random_book(std::uint32_t users, std::uint32_t types,
                             double quantum, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < users; ++j) {
    double v = rng.uniform_real_left_open(0.0, 10.0);
    if (quantum > 0.0) v = std::ceil(v / quantum) * quantum;
    asks.push_back(Ask{TaskType{static_cast<std::uint32_t>(
                           rng.uniform_index(types))},
                       static_cast<std::uint32_t>(rng.uniform_int(1, 20)),
                       v});
  }
  return asks;
}

TEST(AskTypeIndexValueOrder, MatchesAStableSortOnRandomBooks) {
  AskTypeIndex index;  // reused: build() must not keep stale order
  for (const double quantum : {0.0, 0.5, 0.01}) {
    for (const std::uint32_t users : {1u, 7u, 300u, 5000u}) {
      index.build(4, random_book(users, 4, quantum, users));
      expect_stable_value_order(index);
    }
  }
}

TEST(AskTypeIndexValueOrder, AllEqualValuesKeepUserOrder) {
  std::vector<Ask> asks(500, Ask{TaskType{0}, 3, 2.5});
  AskTypeIndex index;
  index.build(1, asks);
  EXPECT_EQ(index.tied[0], 1u);
  std::vector<std::uint32_t> users(500);
  std::iota(users.begin(), users.end(), 0u);
  EXPECT_EQ(index.by_value, users);
  expect_stable_value_order(index);
}

TEST(AskTypeIndexValueOrder, SkewedBookKeepsTiesInUserOrder) {
  // One ask of 1e6 puts every other value, all in (0, 1], into the lowest
  // bucket, which std::sort then orders; a fifth of them tie at 0.5 and
  // must keep user order.
  rng::Rng rng(3);
  std::vector<Ask> asks;
  for (std::uint32_t j = 0; j < 2000; ++j) {
    const double v = j % 5 == 0 ? 0.5 : rng.uniform_real_left_open(0.0, 1.0);
    asks.push_back(Ask{TaskType{0}, 1, v});
  }
  asks[1234].value = 1e6;
  AskTypeIndex index;
  index.build(1, asks);
  expect_stable_value_order(index);
  EXPECT_EQ(index.by_value.back(), 1234u);
}

TEST(AskTypeIndexValueOrder, TypesWithZeroOrOneAsker) {
  const std::vector<Ask> asks{
      {TaskType{2}, 1, 4.0}, {TaskType{0}, 2, 3.0}, {TaskType{2}, 1, 1.0},
      {TaskType{0}, 5, 3.0}, {TaskType{3}, 1, 9.0}};
  AskTypeIndex index;
  index.build(5, asks);  // type 1 and type 4 have no askers
  expect_stable_value_order(index);
  EXPECT_EQ(index.by_value,
            (std::vector<std::uint32_t>{0, 1, 3, 2, 4}));
  const std::vector<std::uint32_t> allocation(asks.size(), 0);
  ExtractedRuns runs;
  extract_runs_into(TaskType{1}, index, allocation, runs);
  EXPECT_TRUE(runs.runs.empty());
  EXPECT_EQ(runs.order_through(kInf), 0u);
  EXPECT_EQ(runs.units, 0u);
  extract_runs_into(TaskType{3}, index, allocation, runs);
  EXPECT_EQ(runs.order_through(kInf), 1u);
  EXPECT_EQ(ordered_runs(runs), (std::vector<std::uint32_t>{0}));
  EXPECT_FALSE(runs.tied);
  extract_runs_into(TaskType{0}, index, allocation, runs);
  EXPECT_TRUE(runs.tied);  // users 1 and 3 both ask 3.0
}

TEST(ExtractRuns, ValueOrderSkipsExhaustedUsers) {
  AskTypeIndex index;
  const std::vector<Ask> asks = random_book(3000, 3, 0.5, 17);
  index.build(3, asks);
  rng::Rng rng(18);
  std::vector<std::uint32_t> remaining(asks.size());
  for (std::size_t j = 0; j < asks.size(); ++j) {
    // A third of the users are exhausted, a third partly used.
    const std::uint64_t pick = rng.uniform_index(3);
    remaining[j] = pick == 0 ? 0
                   : pick == 1
                       ? static_cast<std::uint32_t>(
                             rng.uniform_index(asks[j].quantity + 1))
                       : asks[j].quantity;
  }
  const std::vector<std::uint32_t> allocation = allocated(asks, remaining);
  ExtractedRuns runs;
  for (const std::uint32_t t : {0u, 1u, 2u}) {
    extract_runs_into(TaskType{t}, index, allocation, runs);
    runs.order_through(kInf);
    EXPECT_EQ(ordered_runs(runs), stable_run_order(runs)) << "type " << t;
    for (const std::uint32_t r : ordered_runs(runs)) {
      EXPECT_GT(remaining[runs.owner[r]], 0u);
    }
  }
}

// The first round of a type: nobody has won yet, so every user is a run
// and the value order is the index's, shifted to the type.
TEST(ExtractRuns, AllLiveRoundMatchesNaiveExtract) {
  const std::vector<Ask> asks = random_book(3000, 3, 0.5, 41);
  AskTypeIndex index;
  index.build(3, asks);
  expect_runs_match_naive_extract(asks, index,
                                      std::vector<std::uint32_t>(3000, 0));
  // Partly filled users are still live: nobody is dropped.
  std::vector<std::uint32_t> allocation(asks.size());
  for (std::size_t j = 0; j < asks.size(); ++j) {
    allocation[j] = asks[j].quantity - 1;
  }
  expect_runs_match_naive_extract(asks, index, allocation);
}

// A later round: some users are exhausted and drop out, some are partly
// filled, the rest untouched. Every first and last slot of a type is
// exhausted in one of the books, so the compaction's ends are covered.
TEST(ExtractRuns, LaterRoundMatchesNaiveExtract) {
  AskTypeIndex index;
  for (const std::uint64_t seed : {43u, 44u, 45u}) {
    const std::vector<Ask> asks = random_book(2000, 3, 0.25, seed);
    index.build(3, asks);
    rng::Rng rng(seed);
    std::vector<std::uint32_t> allocation(asks.size());
    for (std::size_t j = 0; j < asks.size(); ++j) {
      const std::uint64_t pick = rng.uniform_index(3);
      allocation[j] =
          pick == 0   ? asks[j].quantity
          : pick == 1 ? static_cast<std::uint32_t>(
                            rng.uniform_index(asks[j].quantity))
                      : 0;
    }
    for (std::uint32_t t = 0; t < 3; ++t) {
      const std::uint32_t end = seed == 43u ? index.offsets[t]
                                            : index.offsets[t + 1] - 1;
      allocation[index.user[end]] = asks[index.user[end]].quantity;
    }
    expect_runs_match_naive_extract(asks, index, allocation);
  }
  // Everybody exhausted: no runs at all.
  const std::vector<Ask> asks = random_book(300, 2, 0.0, 46);
  index.build(2, asks);
  std::vector<std::uint32_t> allocation(asks.size());
  for (std::size_t j = 0; j < asks.size(); ++j) {
    allocation[j] = asks[j].quantity;
  }
  ExtractedRuns runs;
  for (const std::uint32_t t : {0u, 1u}) {
    extract_runs_into(TaskType{t}, index, allocation, runs);
    EXPECT_TRUE(runs.runs.empty());
    EXPECT_TRUE(runs.owner.empty());
    EXPECT_EQ(runs.units, 0u);
    EXPECT_EQ(runs.order_through(kInf), 0u);
  }
}

// --- Sorting only as far as a round's band reads ---------------------------
// build() leaves each bucket of a few slots unsorted until a round's band
// reaches it, and takes each type's tie flag from its buckets, since equal
// values share one. Neither may change the order a round sees.

/// Whether two slots of type t share a value, from a sorted copy.
bool type_has_ties(const AskTypeIndex& index, std::uint32_t t) {
  std::vector<double> values(index.value.begin() + index.offsets[t],
                             index.value.begin() + index.offsets[t + 1]);
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) != values.end();
}

TEST(AskTypeIndexTies, FlagEqualsASortedScanOfEachType) {
  AskTypeIndex index;
  int tied = 0;
  int untied = 0;
  for (const double quantum : {0.0, 0.5, 0.01, 0.001}) {
    for (const std::uint32_t users : {1u, 2u, 9u, 300u, 5000u}) {
      index.build(4, random_book(users, 4, quantum, users + 7));
      for (std::uint32_t t = 0; t < 4; ++t) {
        EXPECT_EQ(index.tied[t] != 0, type_has_ties(index, t))
            << "quantum " << quantum << " users " << users << " type " << t;
        (index.tied[t] != 0 ? tied : untied) += 1;
      }
    }
  }
  EXPECT_GT(tied, 0);
  EXPECT_GT(untied, 0);
}

TEST(AskTypeIndexTies, TiesInSmallAndBigBucketsAndAtTheTop) {
  const auto flag_of = [](const std::vector<double>& values) {
    std::vector<Ask> asks;
    for (const double v : values) asks.push_back(Ask{TaskType{0}, 1, v});
    AskTypeIndex index;
    index.build(1, asks);
    return index.tied[0] != 0;
  };
  std::vector<double> spread;
  for (int i = 1; i <= 100; ++i) spread.push_back(i);
  EXPECT_FALSE(flag_of(spread));
  std::vector<double> pair = spread;
  pair.push_back(50.0);  // a bucket of two
  EXPECT_TRUE(flag_of(pair));
  std::vector<double> top = spread;
  top.push_back(100.0);  // the clamped last bucket
  EXPECT_TRUE(flag_of(top));
  // Twenty distinct values inside one bucket, which build() sorts whole.
  std::vector<double> cluster = spread;
  for (int i = 0; i < 20; ++i) cluster.push_back(50.25 + 1e-9 * i);
  EXPECT_FALSE(flag_of(cluster));
  cluster.push_back(50.25 + 1e-9 * 7);
  EXPECT_TRUE(flag_of(cluster));
}

TEST(AskTypeIndexSortThrough, PrefixMatchesAStableSortAndStaysLazy) {
  AskTypeIndex index;
  for (const double quantum : {0.0, 0.01}) {
    index.build(2, random_book(8000, 2, quantum, 51));
    for (std::uint32_t t = 0; t < 2; ++t) {
      const std::uint32_t begin = index.offsets[t];
      const std::uint32_t n = index.offsets[t + 1] - begin;
      std::vector<std::uint32_t> want(n);
      std::iota(want.begin(), want.end(), begin);
      std::stable_sort(want.begin(), want.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return index.value[a] < index.value[b];
                       });
      for (const std::uint32_t rank : {10u, 800u, n / 2, n - 1}) {
        const double s = index.value[want[rank]];
        const std::uint32_t end = index.sort_through(t, s);
        const auto below = static_cast<std::uint32_t>(std::count_if(
            want.begin(), want.end(),
            [&](std::uint32_t i) { return index.value[i] <= s; }));
        ASSERT_EQ(end - begin, below) << "type " << t << " rank " << rank;
        EXPECT_TRUE(std::equal(want.begin(), want.begin() + below,
                               index.by_value.begin() + begin))
            << "type " << t << " rank " << rank;
        if (rank == 10) {
          // A band of ten slots sorts a few buckets, not the type.
          EXPECT_LT(index.sorted_end[t] - begin, n / 8) << "type " << t;
        }
      }
    }
    expect_stable_value_order(index);
  }
}

/// sort_through(t, s) against a stable sort of type t's slots: it returns
/// the end of the slots of value <= s, by_value holds them in that order,
/// by_value is final through sorted_end[t], and every slot stays listed.
void expect_sorted_through(AskTypeIndex& index, std::uint32_t t, double s) {
  const std::uint32_t begin = index.offsets[t];
  const std::uint32_t end = index.offsets[t + 1];
  std::vector<std::uint32_t> want(end - begin);
  std::iota(want.begin(), want.end(), begin);
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint32_t a, std::uint32_t c) {
                     return index.value[a] < index.value[c];
                   });
  const auto below = static_cast<std::uint32_t>(
      std::count_if(want.begin(), want.end(),
                    [&](std::uint32_t i) { return index.value[i] <= s; }));
  ASSERT_EQ(index.sort_through(t, s), begin + below) << "s " << s;
  const std::uint32_t sorted = index.sorted_end[t];
  ASSERT_GE(sorted, begin + below) << "s " << s;
  ASSERT_LE(sorted, end) << "s " << s;
  EXPECT_TRUE(std::equal(want.begin(), want.begin() + (sorted - begin),
                         index.by_value.begin() + begin))
      << "s " << s;
  std::vector<std::uint32_t> listed(index.by_value.begin() + begin,
                                    index.by_value.begin() + end);
  std::sort(listed.begin(), listed.end());
  std::vector<std::uint32_t> slots(end - begin);
  std::iota(slots.begin(), slots.end(), begin);
  EXPECT_EQ(listed, slots) << "s " << s;
}

/// One type's index over `values`, user j asking values[j].
AskTypeIndex index_of(const std::vector<double>& values) {
  std::vector<Ask> asks;
  for (const double v : values) asks.push_back(Ask{TaskType{0}, 1, v});
  AskTypeIndex index;
  index.build(1, asks);
  return index;
}

/// Whether by_value position `pos` starts one of the index's pairs.
bool pair_at(const AskTypeIndex& index, std::uint32_t pos) {
  return (index.pair_start[pos >> 6] >> (pos & 63) & 1) != 0;
}

// Ten values, max 10: 20 buckets of width 0.5. Users 3 and 4 ask 3.3 and
// 3.1, a bucket of two in descending slot order, which only the pair's
// compare-and-swap puts right.
const std::vector<double> kPairBook{1.0, 2.0, 2.6, 3.3, 3.1,
                                    4.0, 5.0, 6.0, 8.0, 10.0};

TEST(AskTypeIndexSortThrough, ThresholdsAtBetweenAndAroundAPair) {
  for (const double s : {0.5, 3.0, 3.1, 3.2, 3.3, 3.5, 9.0, kInf}) {
    AskTypeIndex index = index_of(kPairBook);
    ASSERT_TRUE(pair_at(index, 3));
    expect_sorted_through(index, 0, s);
    // The walk stops at the first pair whose smaller value is above s.
    if (s < 3.1) {
      EXPECT_EQ(index.sorted_end[0], 3u) << "s " << s;
    } else {
      EXPECT_EQ(index.by_value[3], 4u) << "s " << s;
    }
  }
}

TEST(AskTypeIndexSortThrough, RepeatedAndDecreasingThresholds) {
  // One index, so each call resumes where the last one stopped.
  AskTypeIndex index = index_of(kPairBook);
  for (const double s : {0.5, 3.0, 3.0, 3.2, 3.1, 1.0, 3.3, 2.0, kInf, 3.2,
                         kInf}) {
    expect_sorted_through(index, 0, s);
  }
  EXPECT_EQ(index.sorted_end[0], 10u);
}

TEST(AskTypeIndexSortThrough, EqualValuedPairKeepsSlotOrder) {
  std::vector<double> values = kPairBook;
  values[4] = 3.3;  // users 3 and 4 tie
  for (const double s : {3.2, 3.3, kInf}) {
    AskTypeIndex index = index_of(values);
    ASSERT_TRUE(pair_at(index, 3));
    EXPECT_EQ(index.tied[0], 1u);
    expect_sorted_through(index, 0, s);
  }
}

TEST(AskTypeIndexSortThrough, PairInTheClippedTopBucket) {
  // 10 * scale is the bucket count itself, clipped into the last bucket,
  // where 9.8 joins it: that pair is listed in slot order (10, 9.8).
  std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 9.8};
  for (const double s : {9.7, 9.8, 9.9, 10.0, kInf}) {
    AskTypeIndex index = index_of(values);
    ASSERT_TRUE(pair_at(index, 8));
    expect_sorted_through(index, 0, s);
  }
}

TEST(AskTypeIndexSortThrough, ZeroScaleMakesTheTypeOnePair) {
  // 4 / 2e-310 overflows, so scale is 0 and both slots share bucket 0.
  for (const double s : {5e-311, 1e-310, 1.5e-310, 2e-310, kInf}) {
    AskTypeIndex index = index_of({2e-310, 1e-310});
    ASSERT_EQ(index.scale[0], 0.0);
    ASSERT_TRUE(pair_at(index, 0));
    expect_sorted_through(index, 0, s);
  }
}

TEST(AskTypeIndexSortThrough, BooksOfWholeWords) {
  // 64 and 128 slots: the empty buckets at the top start one word past
  // the pair list, which they must not touch.
  for (const std::uint32_t users : {64u, 128u}) {
    AskTypeIndex index;
    index.build(1, random_book(users, 1, 0.0, users));
    ASSERT_EQ(index.pair_start.size(), users / 64);
    for (const double s : {1.0, 5.0, kInf}) expect_sorted_through(index, 0, s);
  }
}

TEST(AskTypeIndexSortThrough, ManyTypesAndRandomThresholds) {
  // Types share pair_start words, so a walk must stop at its type's end.
  AskTypeIndex index;
  rng::Rng rng(91);
  for (const double quantum : {0.0, 0.01}) {
    for (const std::uint32_t users : {2u, 40u, 700u, 6000u}) {
      index.build(7, random_book(users, 7, quantum, users + 90));
      for (int call = 0; call < 12; ++call) {
        const auto t = static_cast<std::uint32_t>(rng.uniform_index(7));
        const double s = call == 11 ? kInf : rng.uniform_real(0.0, 10.5);
        expect_sorted_through(index, t, s);
      }
      expect_stable_value_order(index);
    }
  }
}

TEST(ExtractRuns, OrderThroughGathersTheBandThenTheRest) {
  AskTypeIndex index;
  for (const double quantum : {0.0, 0.25}) {
    const std::vector<Ask> asks = random_book(3000, 2, quantum, 61);
    index.build(2, asks);
    rng::Rng rng(62);
    std::vector<std::uint32_t> allocation(asks.size());
    for (std::size_t j = 0; j < asks.size(); ++j) {
      // A third of the users exhausted, a third partly filled.
      const std::uint64_t pick = rng.uniform_index(3);
      allocation[j] = pick == 0   ? asks[j].quantity
                      : pick == 1 ? static_cast<std::uint32_t>(
                                        rng.uniform_index(asks[j].quantity))
                                  : 0;
    }
    ExtractedRuns runs;
    for (const std::uint32_t t : {0u, 1u}) {
      extract_runs_into(TaskType{t}, index, allocation, runs);
      const std::vector<std::uint32_t> full = stable_run_order(runs);
      for (const std::size_t rank : {std::size_t{0}, std::size_t{40},
                                     full.size() / 3, full.size() - 1}) {
        const double s = runs.runs[full[rank]].value;
        const auto below = static_cast<std::uint32_t>(std::count_if(
            full.begin(), full.end(),
            [&](std::uint32_t r) { return runs.runs[r].value <= s; }));
        EXPECT_EQ(runs.order_through(s), below) << "rank " << rank;
        EXPECT_EQ(runs.ordered, below) << "rank " << rank;
        EXPECT_EQ(ordered_runs(runs),
                  std::vector<std::uint32_t>(full.begin(), full.begin() + below))
            << "quantum " << quantum << " type " << t << " rank " << rank;
      }
      EXPECT_EQ(runs.order_through(kInf), full.size());
      EXPECT_EQ(ordered_runs(runs), full);
      EXPECT_EQ(runs.tied, quantum > 0.0) << "type " << t;
    }
  }
}

TEST(ExtractRuns, OrderThroughRejectsARebuiltIndex) {
  AskTypeIndex index;
  index.build(2, random_book(300, 2, 0.0, 81));
  ExtractedRuns runs;
  extract_runs_into(TaskType{0}, index, std::vector<std::uint32_t>(300, 0),
                    runs);
  index.build(1, random_book(200, 1, 0.0, 82));
  EXPECT_THROW(runs.order_through(kInf), CheckFailure);
}

// A type down to its last live user: one run, whose order is itself, and
// the type's tie flag, which the exhausted users left set.
TEST(ExtractRuns, LastLiveUserOfATiedType) {
  const std::vector<Ask> asks{{TaskType{0}, 3, 2.0},
                              {TaskType{0}, 4, 2.0},
                              {TaskType{0}, 2, 1.0},
                              {TaskType{1}, 5, 9.0}};
  AskTypeIndex index;
  index.build(2, asks);
  const std::vector<std::uint32_t> allocation{3, 1, 2, 0};
  ExtractedRuns runs;
  extract_runs_into(TaskType{0}, index, allocation, runs);
  ASSERT_EQ(runs.runs.size(), 1u);
  EXPECT_EQ(runs.owner[0], 1u);
  EXPECT_EQ(runs.units, 3u);
  EXPECT_EQ(runs.max_len, 3u);
  EXPECT_TRUE(runs.tied);
  EXPECT_EQ(runs.order_through(1.5), 0u);
  EXPECT_EQ(runs.order_through(2.0), 1u);
  EXPECT_EQ(ordered_runs(runs), (std::vector<std::uint32_t>{0}));
}

TEST(JobType, UniformJobAndTotals) {
  const Job j = Job::uniform(3, 4);
  EXPECT_EQ(j.num_types(), 3u);
  EXPECT_EQ(j.demand(TaskType{2}), 4u);
  EXPECT_EQ(j.total_tasks(), 12u);
  EXPECT_EQ(j.num_demanded_types(), 3u);
}

TEST(JobType, ZeroDemandTypesCounted) {
  const Job j(std::vector<std::uint32_t>{2, 0, 1});
  EXPECT_EQ(j.num_types(), 3u);
  EXPECT_EQ(j.num_demanded_types(), 2u);
  EXPECT_EQ(j.total_tasks(), 3u);
}

TEST(JobType, RejectsEmptyAndAllZero) {
  EXPECT_THROW(Job(std::vector<std::uint32_t>{}), CheckFailure);
  EXPECT_THROW(Job(std::vector<std::uint32_t>{0, 0}), CheckFailure);
}

TEST(JobType, ValidateAsksCatchesBadInput) {
  const Job j = Job::uniform(2, 1);
  EXPECT_NO_THROW(
      validate_asks(j, std::vector<Ask>{{TaskType{1}, 1, 0.5}}));
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{2}, 1, 0.5}}),
               CheckFailure);
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 0, 0.5}}),
               CheckFailure);
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, 0.0}}),
               CheckFailure);
}

TEST(JobType, ValidateAsksRejectsHostileInput) {
  const Job j = Job::uniform(1, 1);
  // Memory-exhaustion claim: Extract would materialize 4e9 unit asks.
  EXPECT_THROW(
      validate_asks(j, std::vector<Ask>{{TaskType{0}, 4000000000u, 1.0}}),
      CheckFailure);
  EXPECT_NO_THROW(
      validate_asks(j, std::vector<Ask>{{TaskType{0}, kMaxAskQuantity, 1.0}}));
  // Non-finite prices poison every payment they touch.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, inf}}),
               CheckFailure);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, nan}}),
               CheckFailure);
  EXPECT_THROW(validate_asks(j, std::vector<Ask>{{TaskType{0}, 1, -3.0}}),
               CheckFailure);
}

TEST(JobType, ObservedKMax) {
  EXPECT_EQ(observed_k_max(std::vector<Ask>{}), 0u);
  EXPECT_EQ(observed_k_max(std::vector<Ask>{{TaskType{0}, 3, 1.0},
                                            {TaskType{1}, 7, 1.0},
                                            {TaskType{0}, 2, 1.0}}),
            7u);
}

TEST(JobType, UtilityFormula) {
  EXPECT_DOUBLE_EQ(utility(10.0, 2, 3.0), 4.0);
  EXPECT_DOUBLE_EQ(utility(0.0, 0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(utility(4.0, 1, 5.0), -1.0);
}

}  // namespace
}  // namespace rit::core
