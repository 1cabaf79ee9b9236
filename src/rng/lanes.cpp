#include "rng/lanes.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.h"
#include "rng/rng.h"

namespace rit::rng::detail {
namespace {

// P without its x^256 term, low word first.
constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                            0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

bool coefficient(const Poly& a, unsigned i) {
  return ((a[i / 64] >> (i % 64)) & 1) != 0;
}

// a * x mod P.
Poly times_x(const Poly& a) {
  Poly r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63)};
  if ((a[3] >> 63) != 0) {
    for (int w = 0; w < 4; ++w) r[w] ^= kCharPoly[w];
  }
  return r;
}

// a * b mod P, Horner over a's coefficients.
Poly mul_mod_p(const Poly& a, const Poly& b) {
  Poly r{};
  for (unsigned i = 256; i-- > 0;) {
    r = times_x(r);
    if (coefficient(a, i)) {
      for (int w = 0; w < 4; ++w) r[w] ^= b[w];
    }
  }
  return r;
}

constexpr unsigned kLevels = kMaxLaneLog2 - kMinLaneLog2 + 1;

// masks[m - kMinLaneLog2][i], bit k: the coefficient of x^i in
// x^(k * 2^m) mod P, for lanes k = 0..7 (lane 0's polynomial is 1).
using JumpTable = std::array<std::array<std::uint8_t, 256>, kLevels>;

const JumpTable& jump_table() {
  static const JumpTable table = [] {
    JumpTable t{};
    Poly lane_len = x_pow2_mod_p(kMinLaneLog2);  // x^(2^m)
    for (std::array<std::uint8_t, 256>& masks : t) {
      Poly offset = {1, 0, 0, 0};  // x^(k * 2^m)
      for (unsigned k = 0; k < 8; ++k) {
        for (unsigned i = 0; i < 256; ++i) {
          if (coefficient(offset, i)) {
            masks[i] |= static_cast<std::uint8_t>(1u << k);
          }
        }
        offset = mul_mod_p(offset, lane_len);
      }
      lane_len = mul_mod_p(lane_len, lane_len);
    }
    return t;
  }();
  return table;
}

// Bit j: trial (x >> 11) < threshold for the next n <= 64 draws.
std::uint64_t plain_word(Xoshiro256StarStar& e, std::uint64_t n,
                         std::uint64_t threshold) {
  std::uint64_t word = 0;
  for (std::uint64_t j = 0; j < n; ++j) {
    word |= std::uint64_t{(e() >> 11) < threshold} << j;
  }
  return word;
}

// The SIMD kernels. The vector types appear only in functions that are
// always inlined into a `target` function, and only by reference across
// a call, so no vector is passed under the default ABI. The typedef form
// of vector_size is the one GCC and Clang both document.

template <int L>
struct Vec;
template <>
struct Vec<4> {
  typedef std::uint64_t type __attribute__((vector_size(32)));
};
template <>
struct Vec<8> {
  typedef std::uint64_t type __attribute__((vector_size(64)));
};

// L copies of the engine, one per lane: lane k starts k * 2^m draws after
// `e`. Seeding is one pass over 256 steps of `e`: each lane sums the
// states whose step number is a term of its jump polynomial.
template <int L>
struct Lanes {
  using V = typename Vec<L>::type;
  V s0{};
  V s1{};
  V s2{};
  V s3{};

  [[gnu::always_inline]] Lanes(Xoshiro256StarStar e, unsigned m) {
    const std::array<std::uint8_t, 256>& masks =
        jump_table()[m - kMinLaneLog2];
    V lane_bit{};
    for (int l = 0; l < L; ++l) lane_bit[l] = std::uint64_t{1} << l;
    for (const std::uint8_t mask : masks) {
      const V take = (V)((lane_bit & mask) != 0);
      s0 ^= take & e.word(0);
      s1 ^= take & e.word(1);
      s2 ^= take & e.word(2);
      s3 ^= take & e.word(3);
      (void)e();
    }
  }

  [[gnu::always_inline]] void next(V& x) {
    Xoshiro256StarStar::step(s0, s1, s2, s3, x);
  }

  // After a block: the last lane ends where the stream does.
  [[gnu::always_inline]] void end(Xoshiro256StarStar& e) const {
    e.set_state(s0[L - 1], s1[L - 1], s2[L - 1], s3[L - 1]);
  }
};

// log2 of the lane length of the next block of an L-lane scan with `left`
// draws to go: the largest m <= kMaxLaneLog2 with L * 2^m <= left, or 0
// when fewer than L * 2^kMinLaneLog2 are left (the plain loop's part).
template <int L>
unsigned block_log2(std::uint64_t left) {
  const std::uint64_t lane = left / L;
  if (lane < (std::uint64_t{1} << kMinLaneLog2)) return 0;
  return std::min(static_cast<unsigned>(std::bit_width(lane)) - 1,
                  kMaxLaneLog2);
}

// L = 1 is the plain loop alone.
template <int L>
[[gnu::always_inline]] inline bool skip_scan(Xoshiro256StarStar& engine,
                                             std::uint64_t count,
                                             std::uint64_t lcm) {
  Xoshiro256StarStar e = engine;  // dropped on a filter hit
  std::uint64_t done = 0;
  if constexpr (L > 1) {
    using V = typename Lanes<L>::V;
    for (unsigned m; (m = block_log2<L>(count - done)) != 0;
         done += std::uint64_t{L} << m) {
      Lanes<L> lanes(e, m);
      V hit{};
      for (std::uint64_t j = std::uint64_t{1} << m; j > 0; --j) {
        V x{};
        lanes.next(x);
        hit |= (V)(x * lcm < lcm);
      }
      for (int l = 0; l < L; ++l) {
        if (hit[l] != 0) return false;
      }
      lanes.end(e);
    }
  }
  for (; done < count; ++done) {
    if (e() * lcm < lcm) return false;  // low 64 bits of x * lcm
  }
  engine = e;
  return true;
}

// One block of trials (x >> 11) < threshold into `words`: lane l's 2^m
// trials fill words [l, l + 1) * 2^m / 64, so the block's bitmap is in
// stream order.
template <int L>
[[gnu::always_inline]] inline void bits_block(Xoshiro256StarStar& e,
                                              unsigned m,
                                              std::uint64_t threshold,
                                              std::uint64_t* words) {
  using V = typename Lanes<L>::V;
  Lanes<L> lanes(e, m);
  const std::uint64_t lane_words = (std::uint64_t{1} << m) / 64;
  for (std::uint64_t w = 0; w < lane_words; ++w) {
    V word{};
    V bit = V{} + 1;
    for (int j = 0; j < 64; ++j) {
      V x{};
      lanes.next(x);
      word |= (V)((x >> 11) < threshold) & bit;
      bit += bit;
    }
    for (int l = 0; l < L; ++l) words[l * lane_words + w] = word[l];
  }
  lanes.end(e);
}

template <int L>
[[gnu::always_inline]] inline void bits_scan(Xoshiro256StarStar& e,
                                             std::uint64_t count,
                                             std::uint64_t threshold,
                                             std::uint64_t* bits) {
  std::uint64_t done = 0;
  if constexpr (L > 1) {
    for (unsigned m; (m = block_log2<L>(count - done)) != 0;
         done += std::uint64_t{L} << m) {
      bits_block<L>(e, m, threshold, bits + done / 64);
    }
  }
  for (; done < count; done += 64) {
    bits[done / 64] =
        plain_word(e, std::min<std::uint64_t>(64, count - done), threshold);
  }
}

#if defined(__x86_64__)
__attribute__((target("avx512f,avx512dq"))) bool skip_avx512(
    Xoshiro256StarStar& e, std::uint64_t count, std::uint64_t lcm) {
  return skip_scan<8>(e, count, lcm);
}
__attribute__((target("avx2"))) bool skip_avx2(Xoshiro256StarStar& e,
                                               std::uint64_t count,
                                               std::uint64_t lcm) {
  return skip_scan<4>(e, count, lcm);
}
__attribute__((target("avx512f,avx512dq"))) void bits_avx512(
    Xoshiro256StarStar& e, std::uint64_t count, std::uint64_t threshold,
    std::uint64_t* bits) {
  bits_scan<8>(e, count, threshold, bits);
}
__attribute__((target("avx2"))) void bits_avx2(Xoshiro256StarStar& e,
                                               std::uint64_t count,
                                               std::uint64_t threshold,
                                               std::uint64_t* bits) {
  bits_scan<4>(e, count, threshold, bits);
}
#endif

}  // namespace

const char* required_isa(LaneKernel kernel) {
  switch (kernel) {
    case LaneKernel::kAvx512:
      return "avx512f+avx512dq";
    case LaneKernel::kAvx2:
      return "avx2";
    case LaneKernel::kPlain:
      break;
  }
  return "";
}

bool supports(LaneKernel kernel) {
  switch (kernel) {
#if defined(__x86_64__)
    case LaneKernel::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
    case LaneKernel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#endif
    case LaneKernel::kPlain:
      return true;
    default:
      return false;
  }
}

LaneKernel host_kernel() {
  static const LaneKernel kernel = supports(LaneKernel::kAvx512)
                                       ? LaneKernel::kAvx512
                                   : supports(LaneKernel::kAvx2)
                                       ? LaneKernel::kAvx2
                                       : LaneKernel::kPlain;
  return kernel;
}

Poly x_pow2_mod_p(unsigned e) {
  Poly r = {2, 0, 0, 0};  // x
  for (unsigned i = 0; i < e; ++i) r = mul_mod_p(r, r);
  return r;
}

Xoshiro256StarStar lane_start(Xoshiro256StarStar engine, unsigned m,
                              unsigned k) {
  RIT_CHECK(m >= kMinLaneLog2 && m <= kMaxLaneLog2 && k < 8);
  const std::array<std::uint8_t, 256>& masks = jump_table()[m - kMinLaneLog2];
  Poly poly{};
  for (unsigned i = 0; i < 256; ++i) {
    poly[i / 64] |= std::uint64_t{(masks[i] >> k) & 1u} << (i % 64);
  }
  engine.jump_by(poly);
  return engine;
}

bool skip_filtered(Xoshiro256StarStar& engine, std::uint64_t count,
                   std::uint64_t lcm, LaneKernel kernel) {
  RIT_CHECK(supports(kernel));
  switch (kernel) {
#if defined(__x86_64__)
    case LaneKernel::kAvx512:
      return skip_avx512(engine, count, lcm);
    case LaneKernel::kAvx2:
      return skip_avx2(engine, count, lcm);
#endif
    default:
      return skip_scan<1>(engine, count, lcm);
  }
}

std::uint64_t bernoulli_bits(Xoshiro256StarStar& engine, std::uint64_t count,
                             std::uint64_t threshold,
                             std::vector<std::uint64_t>& bits,
                             LaneKernel kernel) {
  RIT_CHECK(supports(kernel));
  bits.assign((count + 63) / 64, 0);
  if (threshold == 0) return 0;
  if (threshold >= Rng::kBernoulliCertain) {
    std::fill(bits.begin(), bits.end(), ~std::uint64_t{0});
    if (count % 64 != 0) bits.back() = (std::uint64_t{1} << (count % 64)) - 1;
    return count;
  }
  switch (kernel) {
#if defined(__x86_64__)
    case LaneKernel::kAvx512:
      bits_avx512(engine, count, threshold, bits.data());
      break;
    case LaneKernel::kAvx2:
      bits_avx2(engine, count, threshold, bits.data());
      break;
#endif
    default:
      bits_scan<1>(engine, count, threshold, bits.data());
  }
  std::uint64_t set = 0;
  for (const std::uint64_t word : bits) {
    set += static_cast<std::uint64_t>(std::popcount(word));
  }
  return set;
}

}  // namespace rit::rng::detail
