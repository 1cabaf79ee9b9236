// Lane scans: long runs of consecutive xoshiro256** draws, each draw
// tested on its own, computed in SIMD lanes with the exact stream.
//
// The engine is linear over GF(2) and its characteristic polynomial is
//   P = x^256 + 0x0003c03c3f3ecb19_04b4edcf26259f85_0280002bcefd1a5e_9d116f2bb0f0f001
// (Berlekamp–Massey on its output bits; the low 256 bits are written high
// word first). Jumping n draws ahead is the polynomial x^n mod P applied
// to the state (Xoshiro256StarStar::jump_by). A table built once holds
// x^(k * 2^m) mod P for k = 1..7 and m = kMinLaneLog2..kMaxLaneLog2. One
// pass over 256 engine steps seeds L lanes (L = 8 for AVX-512, 4 for
// AVX2) at offsets 0, K, ..., (L-1) K from the stream's state, K = 2^m.
// Each lane then draws its own K-long stretch, so lane-major order is
// stream order, and the last lane ends where the stream does after the
// block. Blocks are cut as long as at least L * 2^kMinLaneLog2 draws are
// left; the plain loop draws the rest, and every draw on a CPU without
// AVX2. The kernel is picked once from the CPU (host_kernel).
//
// rng::Rng's skip_uniform_indices and bernoulli_bits are these functions
// on the host kernel. The `kernel` argument lets a test run each variant
// the CPU supports.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/xoshiro256.h"

namespace rit::rng::detail {

enum class LaneKernel { kPlain, kAvx2, kAvx512 };

/// The CPU features `kernel` needs, for messages ("" for kPlain).
const char* required_isa(LaneKernel kernel);
/// Whether this CPU runs `kernel`.
bool supports(LaneKernel kernel);
/// The widest kernel this CPU runs, detected once.
LaneKernel host_kernel();

/// Lane lengths are 2^m draws for m in [kMinLaneLog2, kMaxLaneLog2].
inline constexpr unsigned kMinLaneLog2 = 9;
inline constexpr unsigned kMaxLaneLog2 = 14;

using Poly = Xoshiro256StarStar::Poly;
/// x^(2^e) mod P.
Poly x_pow2_mod_p(unsigned e);
/// `engine` advanced by k * 2^m draws through the table, for k in 0..7 and
/// m in [kMinLaneLog2, kMaxLaneLog2].
Xoshiro256StarStar lane_start(Xoshiro256StarStar engine, unsigned m,
                              unsigned k);

/// rng::Rng::skip_uniform_indices: draws `count` raw values x and, unless
/// one has low64(x * lcm) < lcm, advances `engine` past them and returns
/// true. Otherwise returns false with `engine` unchanged.
bool skip_filtered(Xoshiro256StarStar& engine, std::uint64_t count,
                   std::uint64_t lcm, LaneKernel kernel);

/// rng::Rng::bernoulli_bits: `count` trials (x >> 11) < threshold, one
/// draw each, as a bitmap: bit i of bits[i / 64] for trial i, with `bits`
/// resized to (count + 63) / 64 words. Returns the number of successes.
/// Takes no draw when threshold is 0 (no success) or at least 2^53 (every
/// trial succeeds).
std::uint64_t bernoulli_bits(Xoshiro256StarStar& engine, std::uint64_t count,
                             std::uint64_t threshold,
                             std::vector<std::uint64_t>& bits,
                             LaneKernel kernel);

}  // namespace rit::rng::detail
