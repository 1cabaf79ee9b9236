// The sweep front end shared by `ritcs --mode=run` and the figure benches:
// reads the robustness and isolation flags once (--max-trial-failures,
// --trial-timeout-ms, --checkpoint, --checkpoint-every, --resume,
// --supervised, --shard-mem-mb, --shard-cpu-s, --shard-retries,
// --heartbeat-timeout-ms; see the table in docs/robustness.md), applies
// their usage checks, and opens the checkpoint session. Each grid point
// then runs through platform::run_many, supervised in --threads forked
// shards under --supervised.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cli/args.h"
#include "platform/supervisor.h"
#include "sim/checkpoint.h"
#include "sim/guarded.h"

namespace rit::cli {

struct SweepFlags {
  /// --max-trial-failures and --trial-timeout-ms.
  sim::GuardPolicy policy;
  /// --checkpoint ("" = off), --checkpoint-every and --resume.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every{0};
  bool resume{false};
  /// Set by --supervised: the shard budgets; unset = in-process.
  std::optional<platform::SupervisorOptions> isolate;

  /// The argument platform::run_many takes for `isolate`.
  const platform::SupervisorOptions* isolation() const {
    return isolate ? &*isolate : nullptr;
  }
};

/// Reads the flags above from `args` and applies their usage checks;
/// throws CheckFailure naming the flag on a bad value or combination.
SweepFlags read_sweep_flags(Args& args);

/// Refuses, with CheckFailure "--FLAG <reason>", every flag that shapes a
/// sweep: --trials, --threads and the ones read_sweep_flags reads. For
/// modes that run one trial and would otherwise ignore them silently.
void refuse_sweep_flags(const Args& args, const std::string& reason);

/// Opens the session --checkpoint names (nullptr when it is absent), bound
/// to the caller's config hash and seed, the resolved partition width of
/// `threads` and the trials per point. Throws CheckFailure when --resume
/// finds a file that does not match.
std::unique_ptr<sim::CheckpointSession> open_session(const SweepFlags& flags,
                                                     std::uint64_t config_hash,
                                                     std::uint64_t seed,
                                                     unsigned threads,
                                                     std::uint64_t trials);

}  // namespace rit::cli
