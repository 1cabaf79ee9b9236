// xoshiro256** 1.0 (Blackman & Vigna, 2018; public-domain reference code).
//
// Chosen over std::mt19937_64 because (a) the raw engine output is defined by
// the algorithm, not the standard library implementation, so simulations are
// reproducible across toolchains, and (b) it is ~2x faster, which matters for
// the Fig. 6-8 sweeps that draw hundreds of millions of variates.
#pragma once

#include <array>
#include <cstdint>

#include "rng/splitmix64.h"

namespace rit::rng {

class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256StarStar(std::uint64_t seed) {
    // Seeding through SplitMix64 per the authors' recommendation; avoids the
    // all-zero state (SplitMix64 never emits four zero words in a row from
    // distinct states, and we additionally guard below).
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr result_type operator()() {
    result_type result = 0;
    step(s_[0], s_[1], s_[2], s_[3], result);
    return result;
  }

  /// One step of the recurrence on words of type W: std::uint64_t for the
  /// engine, or a GCC vector holding one word of several engines, one per
  /// lane (rng/lanes.cpp). Everything is passed by reference, so a vector W
  /// never crosses a call by value (which -Wpsabi flags).
  template <class W>
  [[gnu::always_inline]] static constexpr void step(W& s0, W& s1, W& s2,
                                                    W& s3, W& result) {
    result = s1 * 5;
    result = (result << 7) | (result >> 57);
    result *= 9;
    const W t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
  }

  /// A polynomial of degree < 256 over GF(2): bit i of word i / 64 is the
  /// coefficient of x^i.
  using Poly = std::array<std::uint64_t, 4>;

  /// The engine is linear over GF(2): a step is one 256x256 bit matrix M,
  /// whose characteristic polynomial P has degree 256. So n steps equal
  /// c(M) for c = x^n mod P. Given c, advances the state by n steps in 256
  /// steps of the engine.
  constexpr void jump_by(const Poly& poly) {
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    std::uint64_t s3 = 0;
    for (std::uint64_t word : poly) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          s0 ^= s_[0];
          s1 ^= s_[1];
          s2 ^= s_[2];
          s3 ^= s_[3];
        }
        (*this)();
      }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

  /// x^(2^128) mod P, the authors' jump polynomial.
  static constexpr Poly kJump = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                 0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};

  /// Advances the state by 2^128 steps (the authors' jump polynomial):
  /// 2^128 jumped copies of one seed yield non-overlapping subsequences,
  /// the textbook way to hand independent streams to parallel workers.
  constexpr void jump() { jump_by(kJump); }

  /// State word i (0..3), and setting all four: the lane scans run copies
  /// of the engine in SIMD registers and hand the final state back.
  constexpr std::uint64_t word(int i) const { return s_[i]; }
  constexpr void set_state(std::uint64_t s0, std::uint64_t s1,
                           std::uint64_t s2, std::uint64_t s3) {
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
  }

 private:
  std::uint64_t s_[4]{};
};

}  // namespace rit::rng
