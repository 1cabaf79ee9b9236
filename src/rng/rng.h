// Rng: the single randomness source used throughout the library.
//
// All distribution code is written out explicitly (no <random> distribution
// classes) because the standard leaves their algorithms unspecified — two
// standard libraries may produce different streams from the same engine.
// Every simulation result in EXPERIMENTS.md is replayable from its seed on
// any conforming C++20 toolchain.
//
// Rng objects are cheap (32 bytes of state) and passed by reference into
// every randomized routine; `split()` derives statistically independent
// children for per-trial / per-component streams so that adding draws in one
// component does not perturb another (the "common random numbers" variance
// reduction the paired truthfulness tests rely on).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "rng/xoshiro256.h"

namespace rit::rng {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// The seed this stream was created from (for diagnostics / replay).
  std::uint64_t seed() const { return seed_; }

  /// Raw 64 uniform random bits.
  std::uint64_t next_u64() { return engine_(); }

  /// Derives an independent child stream. Deterministic: the i-th split of a
  /// given Rng state is always the same stream.
  Rng split() { return Rng(next_u64() ^ 0xa02bdbf7bb3c0a7ULL); }

  /// Uniform integer in [0, bound). Requires bound > 0.
  /// Lemire's nearly-divisionless method with rejection — exactly uniform.
  /// Inline, so a hot loop drawing from a local copy of the stream keeps
  /// the engine state in registers.
  std::uint64_t uniform_u64(std::uint64_t bound) {
    RIT_CHECK(bound > 0);
    // Lemire 2019: multiply-shift with rejection of the biased low region.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    RIT_CHECK(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (span == ~std::uint64_t{0}) {
      return static_cast<std::int64_t>(next_u64());
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     uniform_u64(span + 1));
  }

  /// Uniform size_t index in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n) {
    return static_cast<std::size_t>(uniform_u64(n));
  }

  /// Advances the stream exactly as `count` uniform_index(i) calls would,
  /// for any bounds i > 0 that all divide `lcm`, in any order, without
  /// knowing the bounds or their order. Each such call takes one raw draw
  /// unless its Lemire test low64(x * i) < i fires, and that test implies
  /// low64(x * lcm) < lcm (multiply both sides by lcm / i). So when no raw
  /// draw passes the lcm filter, no call would have rejected, and skipping
  /// `count` raw draws is exact. On a filter hit returns false and leaves
  /// the state unchanged; the caller then replays the calls in order.
  /// The chance of a hit is about count * lcm / 2^64. The raw draws run
  /// in SIMD lanes where the CPU has them (rng/lanes.h).
  bool skip_uniform_indices(std::uint64_t count, std::uint64_t lcm);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo < hi.
  double uniform_real(double lo, double hi);

  /// Uniform double in (lo, hi]: the paper draws costs from (0, 10] and
  /// capabilities from (0, 20], both half-open on the left.
  double uniform_real_left_open(double lo, double hi) {
    RIT_CHECK(lo < hi);
    // 1 - U is in (0, 1]; scale into (lo, hi].
    const double u = 1.0 - uniform01();
    return lo + (hi - lo) * u;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// bernoulli(p) split for hot loops: the threshold T = ceil(p * 2^53)
  /// (0 for p <= 0, kBernoulliCertain for p >= 1; p must not be NaN) is
  /// computed once, and one trial is then the raw compare (x >> 11) < T,
  /// which decides exactly as uniform01() < p: for an integer k = x >> 11,
  /// k * 2^-53 < p exactly when k < ceil(p * 2^53), and p * 2^53 is exact.
  static constexpr std::uint64_t kBernoulliCertain = std::uint64_t{1} << 53;
  static std::uint64_t bernoulli_threshold(double p);
  /// Makes `count` bernoulli(p) trials, T = bernoulli_threshold(p), one
  /// raw draw each, as a bitmap: bit i of bits[i / 64] is trial i, and
  /// `bits` is resized to (count + 63) / 64 words. Returns the number of
  /// successes. For p <= 0 (T = 0) no trial succeeds and for p >= 1 every
  /// one does; neither takes a draw. The draws run in SIMD lanes where the
  /// CPU has them (rng/lanes.h), with the exact stream.
  std::uint64_t bernoulli_bits(std::uint64_t count, std::uint64_t threshold,
                               std::vector<std::uint64_t>& bits);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Chooses `k` distinct indices uniformly from [0, n) (k <= n), in
  /// selection order (not sorted). Uses partial Fisher-Yates: O(n) memory,
  /// O(k) swaps.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// The draws of sample_without_replacement(n, k) (n <= 2^32), kept as a
  /// bitmap: bit i of bits[i / 64] is set when index i is chosen, and
  /// `bits` is resized to (n + 63) / 64 words. `pool` is the O(n)
  /// Fisher-Yates scratch. At steady state (buffers at capacity) the call
  /// is allocation-free, which is what the CRA round hot path needs
  /// (core::CraWorkspace).
  void sample_without_replacement_bits(std::uint64_t n, std::uint64_t k,
                                       std::vector<std::uint32_t>& pool,
                                       std::vector<std::uint64_t>& bits);

 private:
  Xoshiro256StarStar engine_;
  std::uint64_t seed_;
};

}  // namespace rit::rng
