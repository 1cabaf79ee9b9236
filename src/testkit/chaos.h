// Chaos harness: deterministic fault injection for the trial engines.
//
// inject() wraps the sim::TrialBody a test hands to run_trials_guarded or
// run_trials_supervised. The body gets the global trial index in process
// and in a forked shard alike, so an injector fires on the same trial
// under either engine, after the shard published the trial's breadcrumb.
// kill_after_checkpoints() is the CheckpointSession after-save hook that
// models a process kill at a checkpoint boundary (the kill/resume matrix).
// All of it is keyed on the trial index or a seed, so a run replays.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/guarded.h"

namespace rit::testkit::chaos {

/// "Never fire" sentinel for the per-trial injectors.
constexpr std::uint64_t kNever = ~std::uint64_t{0};

struct ChaosSpec {
  /// Throw std::runtime_error on this trial.
  std::uint64_t throw_on_trial{kNever};
  /// Overwrite this trial's avg_utility_rit with NaN after it runs.
  std::uint64_t nan_on_trial{kNever};
  /// Busy-wait `delay_ms` of steady-clock time in this trial (drives the
  /// watchdog tests without depending on the scheduler).
  std::uint64_t delay_on_trial{kNever};
  double delay_ms{0.0};
  /// Also throw on each trial with this probability, drawn from a stream
  /// mixed from (seed, trial): independent of execution order.
  double fault_rate{0.0};
  std::uint64_t seed{0};

  // Process-death injectors, for supervised shards.
  /// raise(signal_number) on this trial (the SIGKILL/SIGSEGV/SIGABRT
  /// death matrix).
  std::uint64_t signal_on_trial{kNever};
  int signal_number{9};  // SIGKILL
  /// Flag OOM on the shard's breadcrumb page, then allocate until the
  /// rlimit refuses (std::bad_alloc) and abort: a hard OOM death.
  std::uint64_t oom_on_trial{kNever};
  /// Spin forever on this trial (the supervisor's heartbeat watchdog).
  std::uint64_t hang_on_trial{kNever};
  /// When set, a process-death injector fires only for the attempt that
  /// creates `<once_dir>/fired.<trial>` (O_EXCL), so the relaunched shard
  /// runs the trial clean. Empty: it fires on every attempt.
  std::string once_dir;
};

/// `body` with `spec`'s injectors armed at the trial index it receives:
/// the process-death injectors, then delay, then a throw (throw_on_trial
/// or a fault_rate draw), then `body`, then NaN poisoning of its metrics.
sim::TrialBody inject(const ChaosSpec& spec, sim::TrialBody body);

/// Thrown by kill_after_checkpoints. Deliberately NOT derived from
/// rit::CheckFailure: it models a hard process death, so nothing in the
/// containment path should catch it.
struct ChaosKill : std::runtime_error {
  explicit ChaosKill(std::uint64_t checkpoints)
      : std::runtime_error("chaos: killed after " +
                           std::to_string(checkpoints) +
                           " checkpoint write(s)") {}
};

/// A CheckpointSession after-save hook that throws ChaosKill once
/// `checkpoints` writes have landed: a process kill at that boundary.
std::function<void(std::uint64_t written)> kill_after_checkpoints(
    std::uint64_t checkpoints);

/// File-corruption helpers for the corrupt-checkpoint rejection tests.
/// Both throw CheckFailure if `path` cannot be read or rewritten.
void truncate_file(const std::string& path, std::size_t keep_bytes);
void flip_bit(const std::string& path, std::size_t byte_index, unsigned bit);

}  // namespace rit::testkit::chaos
