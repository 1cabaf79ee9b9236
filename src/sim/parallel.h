// Progress fan-in for the parallel trial engines: workers funnel
// completions through one SharedProgress, which rate-limits like the serial
// ProgressThrottle and never reports a smaller count after a larger one.
// The trial partition itself is rit::parallel_for_strided's
// (common/parallel.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "sim/progress.h"

namespace rit::sim {

using ProgressFn = std::function<void(std::uint64_t, std::uint64_t)>;

/// Thread-safe progress fan-in: workers call tick() once per finished trial;
/// the wrapped callback fires at most once per throttle interval, with a
/// monotonically increasing completed count, and always fires for the final
/// trial. The callback itself runs under a mutex, so it may be a plain
/// stderr writer.
class SharedProgress {
 public:
  /// `initial` pre-counts trials already completed (a resumed sweep starts
  /// its reporting from the checkpoint cursor, not from zero).
  SharedProgress(ProgressFn fn, std::uint64_t total, std::uint64_t initial = 0)
      : fn_(std::move(fn)), total_(total), done_(initial),
        reported_(initial) {}

  void tick() {
    if (!fn_) return;
    const std::uint64_t done = done_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(mu_);
    if (done <= reported_) return;  // a concurrent tick already covered us
    if (!throttle_.should_fire(done == total_)) return;
    reported_ = done;
    fn_(done, total_);
  }

 private:
  ProgressFn fn_;
  std::uint64_t total_;
  std::atomic<std::uint64_t> done_{0};
  std::mutex mu_;
  std::uint64_t reported_{0};
  ProgressThrottle throttle_;
};

}  // namespace rit::sim
