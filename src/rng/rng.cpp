#include "rng/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rit::rng {

bool Rng::skip_uniform_indices(std::uint64_t count, std::uint64_t lcm) {
  RIT_CHECK(lcm > 0);
  // A local copy keeps the state in registers; on a filter hit it is
  // dropped, which leaves engine_ unchanged.
  Xoshiro256StarStar engine = engine_;
  for (std::uint64_t d = 0; d < count; ++d) {
    if (engine() * lcm < lcm) return false;  // low 64 bits of x * lcm
  }
  engine_ = engine;
  return true;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  RIT_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == ~std::uint64_t{0}) return static_cast<std::int64_t>(next_u64());
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   uniform_u64(span + 1));
}

double Rng::uniform_real(double lo, double hi) {
  RIT_CHECK(lo < hi);
  return lo + (hi - lo) * uniform01();
}

double Rng::uniform_real_left_open(double lo, double hi) {
  RIT_CHECK(lo < hi);
  // 1 - U is in (0, 1]; scale into (lo, hi].
  double u = 1.0 - uniform01();
  return lo + (hi - lo) * u;
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
  std::vector<std::size_t> pool;
  std::vector<std::size_t> out;
  sample_without_replacement_into(n, k, pool, out);
  return out;
}

void Rng::sample_without_replacement_into(std::size_t n, std::size_t k,
                                          std::vector<std::size_t>& pool,
                                          std::vector<std::size_t>& out) {
  RIT_CHECK_MSG(k <= n, "cannot sample " << k << " from " << n);
  pool.resize(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  out.clear();
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
}

}  // namespace rit::rng
