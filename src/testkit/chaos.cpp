#include "testkit/chaos.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/record.h"
#include "platform/shard_worker.h"
#include "rng/rng.h"
#include "stats/timer.h"

namespace rit::testkit::chaos {

namespace {

// Rewrites `path` with `edit` applied to its content, atomically.
template <class Edit>
void rewrite_file(const std::string& path, Edit&& edit) {
  std::optional<std::string> content = slurp_file(path);
  RIT_CHECK_MSG(content.has_value(), "chaos: cannot read '" << path << "'");
  edit(*content);
  write_file_atomic(path, *content);
}

// Whether the process-death injector on `trial` may fire in this attempt
// (see ChaosSpec::once_dir). The marker outlives the process it kills, so
// the relaunch finds it whichever way that process died.
bool first_firing(const ChaosSpec& spec, std::uint64_t trial) {
  if (spec.once_dir.empty()) return true;
  const std::string marker = spec.once_dir + "/fired." + std::to_string(trial);
  const int fd = ::open(marker.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  RIT_CHECK_MSG(fd >= 0 || errno == EEXIST,
                "chaos: cannot create '" << marker << "': "
                                         << std::strerror(errno));
  if (fd >= 0) ::close(fd);
  return fd >= 0;
}

[[noreturn]] void alloc_bomb() {
  // Flag the death before it happens, so the supervisor attributes it to
  // OOM with certainty (ASan turns the abort into a plain exit).
  if (platform::BreadcrumbPage* page = platform::current_breadcrumb()) {
    page->oom.store(1, std::memory_order_relaxed);
  }
  // Allocate in 16 MB slabs and touch every page so the memory is really
  // committed; under an RLIMIT_AS budget the allocator throws bad_alloc
  // almost immediately. Model a hard OOM kill by aborting: the kernel's
  // OOM killer sends an uncatchable signal, so a containable bad_alloc
  // would be the wrong failure class for the supervisor tests.
  constexpr std::size_t kSlab = 16u << 20;
  std::vector<std::unique_ptr<char[]>> slabs;
  try {
    for (;;) {
      slabs.emplace_back(new char[kSlab]);
      char* p = slabs.back().get();
      for (std::size_t i = 0; i < kSlab; i += 4096) p[i] = 1;
    }
  } catch (const std::bad_alloc&) {
    std::abort();
  }
  std::abort();  // unreachable; keeps [[noreturn]] honest
}

}  // namespace

sim::TrialBody inject(const ChaosSpec& spec, sim::TrialBody body) {
  return [spec, body = std::move(body)](std::uint64_t trial,
                                        core::RitWorkspace& ws,
                                        std::string* phase) {
    if (spec.signal_on_trial == trial && first_firing(spec, trial)) {
      std::raise(spec.signal_number);
    }
    if (spec.oom_on_trial == trial && first_firing(spec, trial)) alloc_bomb();
    if (spec.hang_on_trial == trial && first_firing(spec, trial)) {
      volatile std::uint64_t spin = 0;  // volatile: never optimized away
      for (;;) spin = spin + 1;
    }
    if (spec.delay_on_trial == trial && spec.delay_ms > 0.0) {
      // Busy-wait on the monotonic clock: sleep_for can wake early/late, a
      // spin past the deadline cannot — the watchdog test needs certainty.
      stats::Timer timer;
      while (timer.elapsed_ms() < spec.delay_ms) {
      }
    }
    if (spec.throw_on_trial == trial) {
      throw std::runtime_error("chaos: injected throw on trial " +
                               std::to_string(trial));
    }
    if (spec.fault_rate > 0.0) {
      // Per-trial stream mixed from (seed, trial): which trials fault is a
      // pure function of the spec, never of scheduling.
      rng::Rng rng(spec.seed ^ (trial * 0x9e3779b97f4a7c15ULL + 1));
      if (rng.bernoulli(spec.fault_rate)) {
        throw std::runtime_error("chaos: injected fault (rate " +
                                 std::to_string(spec.fault_rate) +
                                 ") on trial " + std::to_string(trial));
      }
    }
    sim::TrialMetrics m = body(trial, ws, phase);
    if (spec.nan_on_trial == trial) {
      m.avg_utility_rit = std::numeric_limits<double>::quiet_NaN();
    }
    return m;
  };
}

std::function<void(std::uint64_t)> kill_after_checkpoints(
    std::uint64_t checkpoints) {
  return [checkpoints](std::uint64_t written) {
    if (written >= checkpoints) throw ChaosKill(written);
  };
}

void truncate_file(const std::string& path, std::size_t keep_bytes) {
  rewrite_file(path, [&](std::string& content) {
    RIT_CHECK_MSG(keep_bytes <= content.size(),
                  "chaos: truncate keeps " << keep_bytes << " of "
                                           << content.size() << " bytes");
    content.resize(keep_bytes);
  });
}

void flip_bit(const std::string& path, std::size_t byte_index, unsigned bit) {
  rewrite_file(path, [&](std::string& content) {
    RIT_CHECK_MSG(byte_index < content.size(),
                  "chaos: flip_bit index " << byte_index << " out of range ("
                                           << content.size() << " bytes)");
    RIT_CHECK(bit < 8);
    content[byte_index] = static_cast<char>(
        static_cast<unsigned char>(content[byte_index]) ^ (1u << bit));
  });
}

}  // namespace rit::testkit::chaos
