#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "rng/rng.h"
#include "stats/chi_square.h"
#include "stats/histogram.h"
#include "stats/online_stats.h"
#include "stats/percentile.h"
#include "stats/timer.h"

namespace rit::stats {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
}

TEST(OnlineStats, MeanAndVarianceMatchClosedForm) {
  OnlineStats s;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0 + i * 0.1;
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptySides) {
  OnlineStats a;
  OnlineStats b;
  b.add(1.0);
  b.add(3.0);
  a.merge(b);  // empty.merge(nonempty)
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  OnlineStats c;
  a.merge(c);  // nonempty.merge(empty)
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_EQ(a.count(), 2u);
}

TEST(OnlineStats, Ci95ShrinksWithSamples) {
  OnlineStats small;
  OnlineStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(OnlineStats, RestoreRoundTripsRawStateBitExactly) {
  OnlineStats s;
  for (int i = 0; i < 50; ++i) s.add(std::cos(i) * 3.0 + 0.1 * i);
  const OnlineStats r = OnlineStats::restore(s.count(), s.raw_mean(),
                                             s.raw_m2(), s.raw_min(),
                                             s.raw_max());
  EXPECT_EQ(r.count(), s.count());
  EXPECT_EQ(r.raw_mean(), s.raw_mean());
  EXPECT_EQ(r.raw_m2(), s.raw_m2());
  EXPECT_EQ(r.raw_min(), s.raw_min());
  EXPECT_EQ(r.raw_max(), s.raw_max());
  EXPECT_EQ(r.variance(), s.variance());
  EXPECT_EQ(r.ci95_half_width(), s.ci95_half_width());
}

TEST(OnlineStats, RestoredAccumulatorContinuesLikeTheOriginal) {
  // Checkpoint/resume: restore a cut, keep adding, and land on exactly the
  // accumulator that never stopped.
  OnlineStats original;
  for (int i = 0; i < 20; ++i) original.add(std::sin(i) * 7.0);
  OnlineStats resumed = OnlineStats::restore(
      original.count(), original.raw_mean(), original.raw_m2(),
      original.raw_min(), original.raw_max());
  for (int i = 20; i < 45; ++i) {
    original.add(std::sin(i) * 7.0);
    resumed.add(std::sin(i) * 7.0);
  }
  EXPECT_EQ(resumed.count(), original.count());
  EXPECT_EQ(resumed.raw_mean(), original.raw_mean());
  EXPECT_EQ(resumed.raw_m2(), original.raw_m2());
  EXPECT_EQ(resumed.min(), original.min());
  EXPECT_EQ(resumed.max(), original.max());
}

TEST(OnlineStats, RestoredEmptyAccumulatorStillReportsZeros) {
  const OnlineStats empty;
  EXPECT_TRUE(std::isinf(empty.raw_min()));
  EXPECT_TRUE(std::isinf(empty.raw_max()));
  OnlineStats r = OnlineStats::restore(0, empty.raw_mean(), empty.raw_m2(),
                                       empty.raw_min(), empty.raw_max());
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.min(), 0.0);
  EXPECT_EQ(r.max(), 0.0);
  EXPECT_EQ(r.sum(), 0.0);
  // The ±infinity sentinels survive, so the first sample sets both bounds.
  r.add(-2.5);
  EXPECT_EQ(r.min(), -2.5);
  EXPECT_EQ(r.max(), -2.5);
}

TEST(Percentile, MedianOfOddAndEven) {
  const std::vector<double> odd{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  const std::vector<double> xs{9.0, 2.0, 7.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 9.0);
}

TEST(Percentile, LinearInterpolation) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.3), 42.0);
}

TEST(Percentile, EmptyInputRejected) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), CheckFailure);
}

TEST(Percentile, BatchQuantilesMatchSingles) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const std::vector<double> qs{0.1, 0.5, 0.9};
  auto batch = quantiles(xs, qs);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& [q, v] : batch) {
    EXPECT_DOUBLE_EQ(v, quantile(xs, q));
  }
}

TEST(Histogram, BucketsCountsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bucket 0
  h.add(1.99);  // bucket 0
  h.add(2.0);   // bucket 1
  h.add(9.99);  // bucket 4
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (hi edge is exclusive)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(Histogram, RenderMentionsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25);
  h.add(0.75);
  h.add(0.8);
  const std::string r = h.render(10);
  EXPECT_NE(r.find("#"), std::string::npos);
  EXPECT_NE(r.find("2"), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), CheckFailure);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckFailure);
}

TEST(ChiSquare, StatisticMatchesHandComputation) {
  const std::vector<std::uint64_t> observed{10, 20, 30};
  const std::vector<double> expected{20.0, 20.0, 20.0};
  // (10-20)^2/20 + 0 + (30-20)^2/20 = 5 + 0 + 5.
  EXPECT_DOUBLE_EQ(chi_square_statistic(observed, expected), 10.0);
}

TEST(ChiSquare, UniformHelperAgrees) {
  const std::vector<std::uint64_t> observed{10, 20, 30};
  const std::vector<double> expected{20.0, 20.0, 20.0};
  EXPECT_DOUBLE_EQ(chi_square_uniform(observed),
                   chi_square_statistic(observed, expected));
}

TEST(ChiSquare, PerfectFitIsZero) {
  const std::vector<std::uint64_t> observed{25, 25, 25, 25};
  EXPECT_DOUBLE_EQ(chi_square_uniform(observed), 0.0);
}

TEST(ChiSquare, CriticalValuesNearTables) {
  // Table values: X^2_(10, 0.01) = 23.21, X^2_(100, 0.01) = 135.81.
  EXPECT_NEAR(chi_square_critical(10, 0.01), 23.21, 0.5);
  EXPECT_NEAR(chi_square_critical(100, 0.01), 135.81, 1.0);
  EXPECT_GT(chi_square_critical(10, 0.001), chi_square_critical(10, 0.01));
}

TEST(ChiSquare, UniformRngPassesAtAlpha001) {
  // End-to-end use: 64-cell uniformity of Rng::uniform_index at alpha 0.001
  // (a fixed seed, so this never flakes: it is a regression pin, not a
  // hypothesis test).
  rit::rng::Rng rng(12345);
  std::vector<std::uint64_t> cells(64, 0);
  for (int i = 0; i < 64000; ++i) ++cells[rng.uniform_index(64)];
  EXPECT_LT(chi_square_uniform(cells), chi_square_critical(63, 0.001));
}

TEST(ChiSquare, DetectsABiasedDie) {
  std::vector<std::uint64_t> cells{100, 100, 100, 100, 100, 220};
  EXPECT_GT(chi_square_uniform(cells), chi_square_critical(5, 0.001));
}

TEST(ChiSquare, RejectsBadInputs) {
  const std::vector<std::uint64_t> observed{1, 2};
  const std::vector<double> bad_expected{1.0, 0.0};
  EXPECT_THROW(chi_square_statistic(observed, bad_expected), CheckFailure);
  EXPECT_THROW(chi_square_critical(5, 0.05), CheckFailure);
  const std::vector<std::uint64_t> zero{0, 0};
  EXPECT_THROW(chi_square_uniform(zero), CheckFailure);
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  Timer t;
  const double a = t.elapsed_ms();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 1e-9;
  const double b = t.elapsed_ms();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.elapsed_ms(), b + 1000.0);  // sanity: reset went backwards
}

TEST(Timer, ElapsedNsAgreesWithElapsedMs) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 1e-9;
  const std::uint64_t ns = t.elapsed_ns();
  const double ms = t.elapsed_ms();
  EXPECT_GT(ms, 0.0) << sink;
  // ns was read first, so it must not exceed the later ms reading.
  EXPECT_LE(static_cast<double>(ns) / 1e6, ms);
  // ...but the two readings bracket the same interval: within 100ms slack.
  EXPECT_GE(static_cast<double>(ns) / 1e6, ms - 100.0);
}

TEST(Timer, ElapsedSecondsAgreesWithElapsedMs) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 1e-9;
  const double s = t.elapsed_s();
  const double ms = t.elapsed_ms();
  EXPECT_GT(s, 0.0) << sink;
  // s was read first, so it must not exceed the later ms reading...
  EXPECT_LE(s * 1000.0, ms);
  // ...and both bracket the same interval: within 100ms slack.
  EXPECT_GE(s * 1000.0, ms - 100.0);
}

TEST(ScopedTimer, ReportsIntoOnlineStatsOnDestruction) {
  OnlineStats sink;
  {
    ScopedTimer timed(sink);
    EXPECT_EQ(sink.count(), 0u);  // nothing reported until scope exit
    double burn = 0.0;
    for (int i = 0; i < 10000; ++i) burn += i * 1e-9;
    EXPECT_GE(burn, 0.0);
  }
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_GE(sink.mean(), 0.0);
  {
    ScopedTimer timed(sink);
  }
  EXPECT_EQ(sink.count(), 2u);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 5);
  a.add(1.0);
  a.add(-1.0);  // underflow
  b.add(1.5);
  b.add(9.9);
  b.add(25.0);  // overflow
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.bucket(0), 2u);  // 1.0 and 1.5
  EXPECT_EQ(a.bucket(4), 1u);  // 9.9
  EXPECT_EQ(a.underflow(), 1u);
  EXPECT_EQ(a.overflow(), 1u);
}

TEST(Histogram, MergeRejectsShapeMismatch) {
  Histogram a(0.0, 10.0, 5);
  Histogram b(0.0, 10.0, 6);
  EXPECT_THROW(a.merge(b), CheckFailure);
}

}  // namespace
}  // namespace rit::stats
