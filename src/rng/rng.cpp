#include "rng/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "rng/lanes.h"

namespace rit::rng {

bool Rng::skip_uniform_indices(std::uint64_t count, std::uint64_t lcm) {
  RIT_CHECK(lcm > 0);
  return detail::skip_filtered(engine_, count, lcm, detail::host_kernel());
}

std::uint64_t Rng::bernoulli_bits(std::uint64_t count,
                                  std::uint64_t threshold,
                                  std::vector<std::uint64_t>& bits) {
  return detail::bernoulli_bits(engine_, count, threshold, bits,
                                detail::host_kernel());
}

double Rng::uniform_real(double lo, double hi) {
  RIT_CHECK(lo < hi);
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::bernoulli_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return kBernoulliCertain;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  RIT_CHECK_MSG(k <= n, "cannot sample " << k << " from " << n);
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

void Rng::sample_without_replacement_bits(std::uint64_t n, std::uint64_t k,
                                          std::vector<std::uint32_t>& pool,
                                          std::vector<std::uint64_t>& bits) {
  RIT_CHECK_MSG(k <= n, "cannot sample " << k << " from " << n);
  RIT_CHECK_MSG(n <= std::uint64_t{1} << 32,
                "cannot sample from " << n << " indices (at most 2^32)");
  pool.resize(n);
  std::iota(pool.begin(), pool.end(), std::uint32_t{0});
  bits.assign((n + 63) / 64, 0);
  // The partial Fisher-Yates of sample_without_replacement; slot i is never
  // read again, so the pick only moves slot i's entry into slot j.
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t j = i + uniform_index(n - i);
    const std::uint32_t pick = pool[j];
    pool[j] = pool[i];
    bits[pick >> 6] |= std::uint64_t{1} << (pick & 63);
  }
}

}  // namespace rit::rng
