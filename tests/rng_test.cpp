#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "rng/lanes.h"
#include "rng/rng.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"

namespace rit::rng {
namespace {

TEST(SplitMix64, KnownVectors) {
  // Reference values from the public-domain splitmix64.c with seed 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Xoshiro, DeterministicAcrossInstances) {
  Xoshiro256StarStar a(123);
  Xoshiro256StarStar b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1);
  Xoshiro256StarStar b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Xoshiro, JumpProducesDisjointLookingStreams) {
  Xoshiro256StarStar base(5);
  Xoshiro256StarStar jumped(5);
  jumped.jump();
  // The jumped stream must not collide with the base stream's prefix.
  std::set<std::uint64_t> prefix;
  Xoshiro256StarStar base_copy(5);
  for (int i = 0; i < 2000; ++i) prefix.insert(base_copy());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(prefix.count(jumped()), 0u) << "collision at output " << i;
  }
  // And jumping is deterministic.
  Xoshiro256StarStar j2(5);
  j2.jump();
  Xoshiro256StarStar j3(5);
  j3.jump();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(j2(), j3());
}

TEST(Xoshiro, JumpedStreamEventuallyMatchesLongRun) {
  // jump() is exactly 2^128 steps — far beyond direct verification, but a
  // double jump must differ from a single jump (the state really moved).
  Xoshiro256StarStar once(9);
  once.jump();
  Xoshiro256StarStar twice(9);
  twice.jump();
  twice.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (once() == twice()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64IsUnbiasedOverSmallBound) {
  Rng rng(17);
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, UniformU64RejectsZeroBound) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_u64(0), CheckFailure);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen, (std::set<std::int64_t>{-2, -1, 0, 1, 2}));
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(23);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformRealLeftOpenExcludesLoIncludesHi) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_real_left_open(0.0, 10.0);
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleIsUniformOnPairs) {
  // Over many shuffles of {0,1,2}, each of the 6 permutations should appear
  // about 1/6 of the time.
  Rng rng(43);
  std::map<std::array<int, 3>, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    std::array<int, 3> v{0, 1, 2};
    rng.shuffle(std::span<int>(v.data(), v.size()));
    ++counts[v];
  }
  EXPECT_EQ(counts.size(), 6u);
  for (const auto& [perm, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 6.0, 0.01);
  }
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(47);
  auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (std::size_t x : s) EXPECT_LT(x, 100u);
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(53);
  auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(59);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckFailure);
}

TEST(Rng, SampleWithoutReplacementKZeroConsumesNoDraws) {
  // k == 0 must be a true no-op on the stream: mechanism paths branch on
  // "anything to sample?" and the branch must not desynchronize replay.
  Rng a(83);
  Rng b(83);
  std::vector<std::uint32_t> pool;
  std::vector<std::uint64_t> bits{~std::uint64_t{0}};
  a.sample_without_replacement_bits(17, 0, pool, bits);
  // Cleared, not left over from the caller.
  EXPECT_EQ(bits, std::vector<std::uint64_t>{0});
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SampleWithoutReplacementEmptyPool) {
  // n == 0, k == 0: legal, empty, and draw-free.
  Rng a(89);
  Rng b(89);
  auto s = a.sample_without_replacement(0, 0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SampleWithoutReplacementFullSetIsAPermutation) {
  // k == n selects every index exactly once, in Fisher-Yates order; the
  // final step still draws (uniform_index(1)), which is part of the
  // stream contract the differential oracle mirrors.
  Rng rng(97);
  Rng untouched(97);
  const auto s = rng.sample_without_replacement(9, 9);
  std::vector<std::size_t> sorted(s.begin(), s.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_NE(rng.next_u64(), untouched.next_u64());  // draws were consumed
}

TEST(Rng, SampleWithoutReplacementBitsMatchesAllocatingForm) {
  // The bitmap form consumes the same draws and sets exactly the selected
  // indices, including when the buffers are reused across differently
  // sized requests (capacity must never leak into the result).
  Rng a(67);
  Rng b(67);
  std::vector<std::uint32_t> pool;
  std::vector<std::uint64_t> bits;
  const std::pair<std::size_t, std::size_t> requests[] = {
      {100, 30}, {10, 10}, {100, 1}, {5, 0}, {200, 199}, {64, 64}, {65, 3}};
  for (const auto& [n, k] : requests) {
    const auto fresh = a.sample_without_replacement(n, k);
    b.sample_without_replacement_bits(n, k, pool, bits);
    std::vector<std::uint64_t> want((n + 63) / 64, 0);
    for (std::size_t i : fresh) want[i / 64] |= std::uint64_t{1} << (i % 64);
    EXPECT_EQ(bits, want) << "n=" << n << " k=" << k;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SampleWithoutReplacementBitsRejectsOverdraw) {
  Rng rng(71);
  std::vector<std::uint32_t> pool;
  std::vector<std::uint64_t> bits;
  EXPECT_THROW(rng.sample_without_replacement_bits(3, 4, pool, bits),
               CheckFailure);
  // Pool slots are 32-bit: more than 2^32 indices is refused before any
  // buffer grows.
  EXPECT_THROW(rng.sample_without_replacement_bits(
                   (std::uint64_t{1} << 32) + 1, 1, pool, bits),
               CheckFailure);
  EXPECT_TRUE(pool.empty());
}

TEST(Rng, SampleWithoutReplacementIsUniform) {
  Rng rng(61);
  std::array<int, 5> counts{};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    for (std::size_t x : rng.sample_without_replacement(5, 2)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.4, 0.02);
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(71);
  Rng child = parent.split();
  // The child stream should not be a shifted copy of the parent stream.
  Rng parent2(71);
  parent2.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent2.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

// skip_uniform_indices stands for a multiset of uniform_index calls in any
// order: bounds drawn from 2..max_len (the Fisher-Yates bounds of runs up
// to max_len long), lcm(2..max_len) passed, and each multiset replayed
// sequentially in several shuffled orders. At these lcm values a filter
// hit has probability below 2^-27 per draw, so the pinned seeds all take
// the skip.
TEST(Rng, SkipUniformIndicesMatchesSequentialCallsInAnyOrder) {
  Rng gen(77);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t max_len = 2 + gen.uniform_index(27);  // 2..28
    std::uint64_t lcm = 1;
    for (std::uint64_t i = 2; i <= max_len; ++i) lcm = std::lcm(lcm, i);
    std::vector<std::uint64_t> bounds(gen.uniform_index(600));
    for (std::uint64_t& b : bounds) b = 2 + gen.uniform_index(max_len - 1);
    for (int order = 0; order < 3; ++order) {
      gen.shuffle(std::span<std::uint64_t>(bounds));
      Rng sequential(1000 + static_cast<std::uint64_t>(trial));
      Rng skipped(1000 + static_cast<std::uint64_t>(trial));
      for (const std::uint64_t b : bounds) (void)sequential.uniform_index(b);
      ASSERT_TRUE(skipped.skip_uniform_indices(bounds.size(), lcm))
          << "trial " << trial;
      EXPECT_EQ(skipped.next_u64(), sequential.next_u64())
          << "trial " << trial << " order " << order;
    }
  }
}

TEST(Rng, SkipUniformIndicesFilterHitLeavesStateUnchanged) {
  // lcm = 2^63 fails the filter on every even raw draw.
  Rng rng(5);
  const Rng before = rng;
  EXPECT_FALSE(rng.skip_uniform_indices(64, std::uint64_t{1} << 63));
  Rng expect = before;
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.next_u64(), expect.next_u64());
}

TEST(Rng, SkipUniformIndicesNeverSkipsPastARejection) {
  // Bound 2^63 + 1 rejects about half its draws. Whenever the sequential
  // calls took more than one raw draw each, the skip must refuse.
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 1;
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng sequential(seed);
    Rng raw(seed);
    Rng skipped(seed);
    for (int c = 0; c < 3; ++c) (void)sequential.uniform_index(bound);
    for (int c = 0; c < 3; ++c) (void)raw.next_u64();
    const bool one_draw_each = sequential.next_u64() == raw.next_u64();
    rejected += one_draw_each ? 0 : 1;
    if (skipped.skip_uniform_indices(3, bound)) {
      EXPECT_TRUE(one_draw_each) << "seed " << seed;
    } else {
      Rng fresh(seed);
      EXPECT_EQ(skipped.next_u64(), fresh.next_u64()) << "seed " << seed;
    }
  }
  EXPECT_GT(rejected, 50);
}

TEST(Rng, SkipUniformIndicesOfNothingIsANoOp) {
  Rng a(8);
  Rng b(8);
  EXPECT_TRUE(a.skip_uniform_indices(0, 12));
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// --- Threshold form of bernoulli -------------------------------------------
// One trial of the threshold form, bernoulli_bits(1, T, bits) with
// T = bernoulli_threshold(p), must take the same draws with the same results
// as bernoulli(p). uniform01() < p is monotone in the raw
// value k = x >> 11, so it is enough that the boundary sits at T: k = T - 1
// passes and k = T fails.

/// Whether uniform01() < p for a draw whose top 53 bits are k.
bool uniform01_below(std::uint64_t k, double p) {
  return static_cast<double>(k) * 0x1.0p-53 < p;
}

/// One trial of the threshold form.
bool threshold_trial(Rng& rng, std::uint64_t t) {
  std::vector<std::uint64_t> bits;
  return rng.bernoulli_bits(1, t, bits) == 1;
}

/// Draws `draws` times from matched streams through both forms and checks
/// that results and the next raw draw agree.
void expect_threshold_form_matches(double p, int draws, std::uint64_t seed) {
  Rng a(seed);
  Rng b(seed);
  const std::uint64_t t = Rng::bernoulli_threshold(p);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(a.bernoulli(p), threshold_trial(b, t)) << "p " << p;
  }
  EXPECT_EQ(a.next_u64(), b.next_u64()) << "p " << p;
}

TEST(Rng, BernoulliThresholdBoundaryForOneOverB) {
  for (std::uint64_t b = 1; b <= (std::uint64_t{1} << 20); ++b) {
    const double p = 1.0 / static_cast<double>(b);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    if (b == 1) {
      ASSERT_EQ(t, Rng::kBernoulliCertain);
      continue;
    }
    ASSERT_GT(t, 0u) << "b " << b;
    ASSERT_LT(t, Rng::kBernoulliCertain) << "b " << b;
    ASSERT_TRUE(uniform01_below(t - 1, p)) << "b " << b;
    ASSERT_FALSE(uniform01_below(t, p)) << "b " << b;
  }
}

TEST(Rng, BernoulliThresholdMatchesBernoulliDrawForDraw) {
  Rng a(76);
  Rng b(76);
  for (std::uint64_t d = 1; d <= (std::uint64_t{1} << 20); ++d) {
    const double p = 1.0 / static_cast<double>(d);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(a.bernoulli(p), threshold_trial(b, t)) << "b " << d;
    }
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // Large p makes both outcomes frequent.
  for (const double p : {0.5, 0.3, 0.9, 0.999}) {
    expect_threshold_form_matches(p, 4096, 77);
  }
}

TEST(Rng, BernoulliThresholdJustBelowOne) {
  double p = 1.0;
  for (int step = 0; step < 8; ++step) {
    p = std::nextafter(p, 0.0);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    ASSERT_LT(t, Rng::kBernoulliCertain) << "step " << step;
    EXPECT_TRUE(uniform01_below(t - 1, p)) << "step " << step;
    EXPECT_FALSE(uniform01_below(t, p)) << "step " << step;
    expect_threshold_form_matches(p, 1024, 78);
  }
  EXPECT_EQ(Rng::bernoulli_threshold(std::nextafter(1.0, 0.0)),
            Rng::kBernoulliCertain - 1);
}

TEST(Rng, BernoulliThresholdOutsideUnitIntervalTakesNoDraw) {
  std::vector<std::uint64_t> bits;
  for (const double p : {0.0, -0.0, -1.0, -1e300}) {
    EXPECT_EQ(Rng::bernoulli_threshold(p), 0u) << p;
    Rng a(79);
    Rng untouched(79);
    EXPECT_EQ(a.bernoulli_bits(70, Rng::bernoulli_threshold(p), bits), 0u);
    EXPECT_EQ(bits, (std::vector<std::uint64_t>{0, 0}));
    EXPECT_EQ(a.next_u64(), untouched.next_u64()) << p;
    expect_threshold_form_matches(p, 16, 79);
  }
  for (const double p : {1.0, 1.5, 1e300}) {
    EXPECT_EQ(Rng::bernoulli_threshold(p), Rng::kBernoulliCertain) << p;
    Rng a(80);
    Rng untouched(80);
    EXPECT_EQ(a.bernoulli_bits(70, Rng::bernoulli_threshold(p), bits), 70u);
    EXPECT_EQ(bits, (std::vector<std::uint64_t>{~std::uint64_t{0}, 0x3f}));
    EXPECT_EQ(a.next_u64(), untouched.next_u64()) << p;
    expect_threshold_form_matches(p, 16, 80);
  }
}

TEST(Rng, BernoulliBitsMatchSequentialCalls) {
  std::vector<std::uint64_t> bits;
  for (const double p : {1e-4, 0.01, 0.2, 0.7}) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(81);
    Rng b(81);
    for (const std::uint64_t count : {0u, 1u, 7u, 50u, 1000u, 20000u}) {
      for (int rep = 0; rep < 5; ++rep) {
        std::vector<std::uint64_t> want_bits((count + 63) / 64, 0);
        std::uint64_t set = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
          if (a.bernoulli(p)) {
            want_bits[i / 64] |= std::uint64_t{1} << (i % 64);
            ++set;
          }
        }
        ASSERT_EQ(b.bernoulli_bits(count, t, bits), set);
        ASSERT_EQ(bits, want_bits) << "p " << p << " count " << count;
      }
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "p " << p;
  }
}

// --- Jump-ahead and lane scans (rng/lanes.h) --------------------------------

using detail::LaneKernel;

}  // namespace

namespace detail {
// Names the kernel in test names and failure messages.
void PrintTo(LaneKernel kernel, std::ostream* os) {
  switch (kernel) {
    case LaneKernel::kAvx2:
      *os << "avx2";
      return;
    case LaneKernel::kAvx512:
      *os << "avx512";
      return;
    case LaneKernel::kPlain:
      break;
  }
  *os << "plain";
}
}  // namespace detail

namespace {

TEST(LaneJump, CharacteristicPolynomialGivesTheAuthorsJump) {
  EXPECT_EQ(detail::x_pow2_mod_p(128), Xoshiro256StarStar::kJump);
}

TEST(LaneJump, PowerOfTwoJumpsEqualStepping) {
  Xoshiro256StarStar stepped(21);
  std::uint64_t steps = 0;
  for (unsigned e = 0; e <= 16; ++e) {
    for (; steps < (std::uint64_t{1} << e); ++steps) (void)stepped();
    Xoshiro256StarStar jumped(21);
    jumped.jump_by(detail::x_pow2_mod_p(e));
    Xoshiro256StarStar probe = stepped;
    for (int i = 0; i < 4; ++i) EXPECT_EQ(jumped(), probe()) << "2^" << e;
  }
}

TEST(LaneJump, LaneOffsetsEqualStepping) {
  const Xoshiro256StarStar start(22);
  for (unsigned m = detail::kMinLaneLog2; m <= detail::kMaxLaneLog2; ++m) {
    Xoshiro256StarStar stepped = start;
    for (unsigned k = 0; k < 8; ++k) {
      if (k > 0) {
        for (std::uint64_t i = 0; i < (std::uint64_t{1} << m); ++i) {
          (void)stepped();
        }
      }
      Xoshiro256StarStar jumped = detail::lane_start(start, m, k);
      Xoshiro256StarStar probe = stepped;
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(jumped(), probe()) << "m " << m << " k " << k;
      }
    }
  }
}

// One draw at a time, the semantics every kernel must reproduce.
std::vector<std::uint64_t> reference_hits(Xoshiro256StarStar& e,
                                          std::uint64_t count,
                                          std::uint64_t t) {
  std::vector<std::uint64_t> hits;
  if (t == 0) return hits;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (t >= Rng::kBernoulliCertain || (e() >> 11) < t) hits.push_back(i);
  }
  return hits;
}

std::vector<std::uint64_t> to_bits(const std::vector<std::uint64_t>& hits,
                                   std::uint64_t count) {
  std::vector<std::uint64_t> bits((count + 63) / 64, 0);
  for (const std::uint64_t i : hits) {
    bits[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return bits;
}

bool reference_skip(Xoshiro256StarStar& engine, std::uint64_t count,
                    std::uint64_t lcm) {
  Xoshiro256StarStar e = engine;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (e() * lcm < lcm) return false;
  }
  engine = e;
  return true;
}

void expect_same_state(Xoshiro256StarStar a, Xoshiro256StarStar b,
                       const std::string& what) {
  for (int i = 0; i < 4; ++i) ASSERT_EQ(a(), b()) << what;
}

// The raw draw at stream position `pos` of `engine`.
std::uint64_t draw_at(Xoshiro256StarStar engine, std::uint64_t pos) {
  for (std::uint64_t i = 0; i < pos; ++i) (void)engine();
  return engine();
}

class LaneScan : public ::testing::TestWithParam<LaneKernel> {
 protected:
  void SetUp() override {
    if (!detail::supports(GetParam())) {
      GTEST_SKIP() << "this CPU lacks " << detail::required_isa(GetParam());
    }
  }

  // The bitmap, its count and the next state against the reference, from
  // `seed`.
  void expect_trials_match(std::uint64_t seed, std::uint64_t count,
                           std::uint64_t t) {
    const std::string what = "seed " + std::to_string(seed) + " count " +
                             std::to_string(count) + " t " + std::to_string(t);
    Xoshiro256StarStar want(seed);
    const std::vector<std::uint64_t> want_hits = reference_hits(want, count, t);
    Xoshiro256StarStar got(seed);
    std::vector<std::uint64_t> bits(3, 1);  // overwritten, not or-ed into
    ASSERT_EQ(detail::bernoulli_bits(got, count, t, bits, GetParam()),
              want_hits.size())
        << what;
    ASSERT_EQ(bits, to_bits(want_hits, count)) << what;
    expect_same_state(got, want, what);
  }

  // The skip against the reference, from `seed`; returns whether it
  // skipped.
  bool expect_skip_matches(std::uint64_t seed, std::uint64_t count,
                           std::uint64_t lcm) {
    const std::string what = "seed " + std::to_string(seed) + " count " +
                             std::to_string(count) + " lcm " +
                             std::to_string(lcm);
    Xoshiro256StarStar want(seed);
    const bool skipped = reference_skip(want, count, lcm);
    Xoshiro256StarStar got(seed);
    EXPECT_EQ(detail::skip_filtered(got, count, lcm, GetParam()), skipped)
        << what;
    expect_same_state(got, want, what);
    return skipped;
  }
};

// Block edges of both lane widths (L * 2^m for L = 4, 8 and m = 9..14),
// one off each way, sums of blocks, and one scan past the largest block.
std::vector<std::uint64_t> edge_counts() {
  std::vector<std::uint64_t> counts = {0, 1, 63, 64, 65, 200000};
  for (std::uint64_t block = 2048; block <= (std::uint64_t{8} << 14);
       block *= 2) {
    for (const std::uint64_t c : {block - 1, block, block + 1}) {
      counts.push_back(c);
    }
  }
  counts.push_back((std::uint64_t{8} << 14) + 4096 + 2048 + 1);
  return counts;
}

TEST_P(LaneScan, TrialsMatchOneDrawAtATime) {
  const std::uint64_t certain = Rng::kBernoulliCertain;
  for (const std::uint64_t count : edge_counts()) {
    for (const std::uint64_t t :
         {std::uint64_t{0}, std::uint64_t{1}, certain / 10000, certain / 3,
          certain - 1, certain}) {
      expect_trials_match(90 + count % 7, count, t);
    }
  }
}

TEST_P(LaneScan, HitsAtLaneBoundaries) {
  // With T one above the top 53 bits of the draw at a lane's first or last
  // position, that position is a hit; with T equal to them, a miss.
  const std::uint64_t seed = 23;
  for (const std::uint64_t lane_len : {512u, 1024u, 4096u}) {
    const std::uint64_t count = 8 * lane_len;
    for (std::uint64_t k = 1; k < 8; ++k) {
      for (const std::uint64_t pos : {k * lane_len - 1, k * lane_len}) {
        const std::uint64_t top = draw_at(Xoshiro256StarStar(seed), pos) >> 11;
        ASSERT_LT(top + 1, Rng::kBernoulliCertain);
        expect_trials_match(seed, count, top);
        expect_trials_match(seed, count, top + 1);
      }
    }
  }
}

TEST_P(LaneScan, SkipMatchesOneDrawAtATime) {
  for (const std::uint64_t count : edge_counts()) {
    // lcm(2..20) fails the filter with probability 2^-36 per draw; 2^63
    // fails on every even draw.
    EXPECT_TRUE(expect_skip_matches(31 + count % 5, count, 232792560));
    EXPECT_EQ(expect_skip_matches(31, count, std::uint64_t{1} << 63),
              count == 0);
  }
}

TEST_P(LaneScan, FilterHitInTheLastLaneLeavesStateUnchanged) {
  // With lcm = 2^52 a draw fails the filter with probability 2^-12. Search
  // seeds for a scan whose only failing draw lies in the last lane of the
  // first block (positions 3584..4095 of 4096), or in the plain tail after
  // one block (4096..4159 of 4160).
  const std::uint64_t lcm = std::uint64_t{1} << 52;
  for (const auto& [count, first] :
       {std::pair<std::uint64_t, std::uint64_t>{4096, 3584}, {4160, 4096}}) {
    std::uint64_t found = 0;
    for (std::uint64_t seed = 0; found < 3; ++seed) {
      ASSERT_LT(seed, 100000u);
      Xoshiro256StarStar e(seed);
      std::uint64_t filtered = 0;
      bool only_late = true;
      for (std::uint64_t i = 0; i < count; ++i) {
        if (e() * lcm < lcm) {
          ++filtered;
          only_late = only_late && i >= first;
        }
      }
      if (filtered == 0 || !only_late) continue;
      ++found;
      EXPECT_FALSE(expect_skip_matches(seed, count, lcm));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, LaneScan,
    ::testing::Values(LaneKernel::kPlain, LaneKernel::kAvx2,
                      LaneKernel::kAvx512),
    [](const ::testing::TestParamInfo<LaneKernel>& kernel) {
      return ::testing::PrintToString(kernel.param);
    });

}  // namespace
}  // namespace rit::rng
