#include "common/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace rit {

unsigned resolve_threads(unsigned threads, std::uint64_t items) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::min<std::uint64_t>(
      threads, std::max<std::uint64_t>(items, 1)));
}

void parallel_for_strided(
    std::uint64_t items, unsigned threads,
    const std::function<void(std::uint64_t, unsigned)>& body) {
  const unsigned t = resolve_threads(threads, items);
  if (t <= 1) {
    for (std::uint64_t i = 0; i < items; ++i) body(i, 0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(t);
  for (unsigned w = 0; w < t; ++w) {
    workers.emplace_back([&body, items, t, w]() {
      for (std::uint64_t i = w; i < items; i += t) body(i, w);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

}  // namespace rit
