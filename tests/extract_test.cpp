#include <gtest/gtest.h>

#include <limits>

#include "common/check.h"
#include "core/extract.h"

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

TEST(ExtractRemaining, UsesRemainingNotAskedQuantity) {
  const std::vector<Ask> asks{
      {TaskType{0}, 5, 1.5},
      {TaskType{0}, 3, 2.5},
  };
  const std::vector<std::uint32_t> remaining{2, 0};
  const ExtractedAsks e = extract_remaining(TaskType{0}, asks, remaining);
  EXPECT_EQ(e.values, (std::vector<double>{1.5, 1.5}));
  EXPECT_EQ(e.owner, (std::vector<std::uint32_t>{0, 0}));
}

TEST(ExtractRemaining, ZeroRemainingEverywhereGivesEmpty) {
  const std::vector<Ask> asks{{TaskType{0}, 5, 1.5}};
  const std::vector<std::uint32_t> remaining{0};
  EXPECT_TRUE(extract_remaining(TaskType{0}, asks, remaining).empty());
}

TEST(ExtractRemaining, RejectsRemainingAboveAsked) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}};
  const std::vector<std::uint32_t> remaining{3};
  EXPECT_THROW(extract_remaining(TaskType{0}, asks, remaining), CheckFailure);
}

TEST(ExtractRemaining, RejectsSizeMismatch) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}};
  const std::vector<std::uint32_t> remaining{1, 1};
  EXPECT_THROW(extract_remaining(TaskType{0}, asks, remaining), CheckFailure);
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

// The run form lays out exactly the unit vector extract_remaining builds:
// expanding each run to len copies of its value and owner must give alpha
// and lambda back.
TEST(ExtractRuns, ExpandsToTheUnitVectorOfExtractRemaining) {
  const std::vector<Ask> asks{
      {TaskType{1}, 4, 2.0}, {TaskType{0}, 2, 3.0}, {TaskType{1}, 3, 2.0},
      {TaskType{0}, 5, 1.0}, {TaskType{1}, 1, 7.5}, {TaskType{1}, 6, 4.0},
  };
  const std::vector<std::uint32_t> remaining{4, 0, 2, 5, 0, 6};
  AskTypeIndex index;
  index.build(2, asks);
  ExtractedRuns runs;
  for (const std::uint32_t t : {0u, 1u}) {
    extract_runs_into(TaskType{t}, index, remaining, runs);
    ASSERT_EQ(runs.runs.size(), runs.owner.size());
    ExtractedAsks expanded;
    for (std::size_t r = 0; r < runs.runs.size(); ++r) {
      const AskRun& run = runs.runs[r];
      EXPECT_GT(run.len, 0u);
      EXPECT_EQ(run.start, expanded.size());
      expanded.values.insert(expanded.values.end(), run.len, run.value);
      expanded.owner.insert(expanded.owner.end(), run.len, runs.owner[r]);
    }
    const ExtractedAsks want = extract_remaining(TaskType{t}, asks, remaining);
    EXPECT_EQ(expanded.values, want.values) << "type " << t;
    EXPECT_EQ(expanded.owner, want.owner) << "type " << t;
  }
  // Users 0 and 2 bid the same value: they stay two runs.
  extract_runs_into(TaskType{1}, index, remaining, runs);
  ASSERT_EQ(runs.runs.size(), 3u);
  EXPECT_EQ(runs.owner, (std::vector<std::uint32_t>{0, 2, 5}));
}

TEST(ExtractRuns, RejectsRemainingAboveAsked) {
  const std::vector<Ask> asks{{TaskType{0}, 2, 1.0}};
  AskTypeIndex index;
  index.build(1, asks);
  ExtractedRuns runs;
  const std::vector<std::uint32_t> remaining{3};
  EXPECT_THROW(extract_runs_into(TaskType{0}, index, remaining, runs),
               CheckFailure);
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
