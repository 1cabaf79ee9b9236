#include "sim/chaos.h"

#include <csignal>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/record.h"
#include "rng/rng.h"
#include "stats/timer.h"

namespace rit::sim::chaos {

namespace {

std::string read_all(const std::string& path) {
  std::optional<std::string> content = slurp_file(path);
  RIT_CHECK_MSG(content.has_value(), "chaos: cannot read '" << path << "'");
  return std::move(*content);
}

}  // namespace

void inject_before_trial(const ChaosSpec& spec, std::uint64_t trial) {
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
}

void inject_after_trial(const ChaosSpec& spec, std::uint64_t trial,
                        TrialMetrics& metrics) {
  if (spec.nan_on_trial == trial) {
    metrics.avg_utility_rit = std::numeric_limits<double>::quiet_NaN();
  }
}

void raise_signal(int signal_number) { std::raise(signal_number); }

void alloc_bomb() {
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

void spin_forever() {
  // Volatile sink so the loop cannot be optimized into a no-op.
  volatile std::uint64_t sink = 0;
  for (;;) {
    sink = sink + 1;
  }
}

void truncate_file(const std::string& path, std::size_t keep_bytes) {
  std::string content = read_all(path);
  RIT_CHECK_MSG(keep_bytes <= content.size(),
                "chaos: truncate keeps " << keep_bytes << " of "
                                         << content.size() << " bytes");
  content.resize(keep_bytes);
  write_file_atomic(path, content);
}

void flip_bit(const std::string& path, std::size_t byte_index, unsigned bit) {
  std::string content = read_all(path);
  RIT_CHECK_MSG(byte_index < content.size(),
                "chaos: flip_bit index " << byte_index << " out of range ("
                                         << content.size() << " bytes)");
  RIT_CHECK(bit < 8);
  content[byte_index] = static_cast<char>(
      static_cast<unsigned char>(content[byte_index]) ^ (1u << bit));
  write_file_atomic(path, content);
}

}  // namespace rit::sim::chaos
