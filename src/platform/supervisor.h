// Process-isolated sweep supervisor: the parent side of shard_worker.h.
//
// run_trials_supervised() partitions a grid point's trial space into K
// residue-class shards, forks one worker process per shard under rlimit
// budgets, and monitors the fleet: a shard that segfaults, OOMs, hits its
// CPU budget, or stops heartbeating is recorded in the FaultLedger as a
// kWorkerDeath (with the shard's last breadcrumb as forensics) and
// relaunched with exponential backoff, resuming from its own checkpoint
// cut. Because each shard folds exactly the trials the in-process runner's
// worker s would fold at threads=K — in the same order — and the
// supervisor merges shard results in shard-index order, a supervised run
// (disturbed or not) produces bit-identical aggregates to
// run_trials_guarded(threads=K). See docs/robustness.md.
//
// Failure classes and what the supervisor does:
//   * signal death / unknown exit  -> forensics + backoff retry
//   * heartbeat stall              -> SIGKILL + forensics + backoff retry
//   * exit kShardCheckFailure/kShardError (deterministic: budget
//     exhausted, binding mismatch, escaped exception) -> abort the sweep
//   * retry budget (shard_retries) exhausted -> quarantine the shard,
//     flush `.aborted` forensics, abort the sweep
#pragma once

#include <cstdint>
#include <string>

#include "sim/checkpoint.h"
#include "sim/guarded.h"
#include "sim/scenario.h"

namespace rit::platform {

struct SupervisorOptions {
  /// Worker processes (0 = hardware concurrency, clamped to the trial
  /// count like resolve_threads). This takes the role threads has for the
  /// in-process runner: the partition — and so the bits — bind to it.
  unsigned shards{0};
  /// Per-shard memory budget in MB, enforced as RLIMIT_AS (0 = unlimited).
  std::uint64_t shard_mem_mb{0};
  /// Per-shard CPU budget in seconds, enforced as RLIMIT_CPU (0 = off).
  std::uint64_t shard_cpu_s{0};
  /// Worker deaths tolerated per shard before it is quarantined and the
  /// sweep aborts. The first launch is attempt 0; shard_retries=2 allows
  /// up to 3 launches.
  unsigned shard_retries{2};
  /// Base relaunch delay; attempt n waits backoff_ms * 2^(n-1).
  std::uint64_t backoff_ms{100};
  /// Declare a shard hung when its heartbeat does not advance for this
  /// long, and SIGKILL it (0 = watchdog off).
  std::uint64_t heartbeat_timeout_ms{0};
  /// Durable shard state: each shard k checkpoints to
  /// `<checkpoint_path>.shard<k>` every `checkpoint_every` trials, so a
  /// relaunch resumes from the shard's last cut instead of replaying.
  /// Empty = no durable state (retries replay the whole shard —
  /// deterministic either way).
  std::string checkpoint_path;
  std::uint64_t checkpoint_every{0};
  /// Resume shard files from a previous supervised run (stale files —
  /// config-hash mismatch from an earlier grid point — are discarded).
  bool resume{false};
  /// Sweep config hash + seed, mixed into each shard file's binding so a
  /// shard checkpoint can never resume the wrong sweep/point/shard.
  std::uint64_t config_hash{0};
  std::uint64_t seed{0};
};

/// Supervised analogue of run_trials_guarded: same body/seed contract,
/// same result, same abort semantics (CheckFailure), but each residue
/// class runs in its own forked process. `session`, when non-null, is the
/// *parent* sweep session (bound to threads == resolved shard count): the
/// supervisor consults completed_point, calls complete_point, and flushes
/// `.aborted` forensics through it; the per-shard durable state lives in
/// the sibling `.shard<k>` files named by `opts.checkpoint_path`.
sim::GuardedResult run_trials_supervised(std::uint64_t trials,
                                         const SupervisorOptions& opts,
                                         const sim::GuardPolicy& policy,
                                         const sim::TrialBody& body,
                                         const sim::TrialSeedFn& seed_of = {},
                                         sim::CheckpointSession* session = nullptr,
                                         std::uint64_t point = 0,
                                         const sim::ProgressFn& progress = {});

/// Scenario-driven form (the supervised run_many_guarded): the body stages
/// make_instance / run_trial and mirrors the stage into the shard's
/// breadcrumb page, so worker-death forensics name the phase that died.
sim::GuardedResult run_many_supervised(const sim::Scenario& scenario,
                                       std::uint64_t trials,
                                       const SupervisorOptions& opts,
                                       const sim::GuardPolicy& policy,
                                       sim::CheckpointSession* session = nullptr,
                                       std::uint64_t point = 0,
                                       const sim::ProgressFn& progress = {});

}  // namespace rit::platform
