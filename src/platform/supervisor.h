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

#include "sim/checkpoint.h"
#include "sim/guarded.h"
#include "sim/scenario.h"

namespace rit::platform {

/// The isolation budgets of a supervised run. The partition width is the
/// run's `threads`, and the shard checkpoints follow the run's session.
struct SupervisorOptions {
  /// Per-shard memory budget in MB, enforced as RLIMIT_AS (0 = unlimited).
  std::uint64_t shard_mem_mb{0};
  /// Per-shard CPU budget in seconds, enforced as RLIMIT_CPU (0 = off).
  std::uint64_t shard_cpu_s{0};
  /// Worker deaths tolerated per shard before it is quarantined and the
  /// sweep aborts. The first launch is attempt 0; shard_retries=2 allows
  /// up to 3 launches, attempt n after a 100 ms * 2^(n-1) backoff.
  unsigned shard_retries{2};
  /// Declare a shard hung when its heartbeat does not advance for this
  /// long, and SIGKILL it (0 = watchdog off).
  std::uint64_t heartbeat_timeout_ms{0};
};

/// Supervised analogue of run_trials_guarded: same body/seed contract,
/// same result, same abort semantics (CheckFailure), but each residue
/// class of `threads` (0 = hardware concurrency, clamped to the trial
/// count) runs in its own forked process. `session`, when non-null, is the
/// parent sweep session, bound to the resolved shard count: the supervisor
/// consults completed_point, calls complete_point, and flushes `.aborted`
/// forensics through it. Shard k then checkpoints to the sibling file
/// `<session path>.shard<k>` every `session->params().every` trials under
/// the session's config hash and seed, so a relaunch resumes from the
/// shard's last cut; without a session a relaunch replays the whole shard
/// (deterministic either way). A partial cut the in-process engine left
/// in the session seeds every shard that has no further cut of its own,
/// and progress counts the trials each shard restores.
sim::GuardedResult run_trials_supervised(std::uint64_t trials, unsigned threads,
                                         const SupervisorOptions& opts,
                                         const sim::GuardPolicy& policy,
                                         const sim::TrialBody& body,
                                         const sim::TrialSeedFn& seed_of = {},
                                         sim::CheckpointSession* session = nullptr,
                                         std::uint64_t point = 0,
                                         const sim::ProgressFn& progress = {});

/// The scenario's trial body: make_instance + run_trial, each stage named
/// in `phase` and on the shard's breadcrumb page (a no-op in process), so
/// a fault or a worker death names it. `scenario` must outlive the body.
sim::TrialBody scenario_body(const sim::Scenario& scenario);

/// The scenario-driven sweep engine that the benches and `ritcs
/// --mode=run` call: scenario_body per trial, seeds from
/// Scenario::trial_seed, on `threads` workers of the in-process guarded
/// engine, or, when `isolate` is non-null, in `threads` supervised shard
/// processes under its budgets.
sim::GuardedResult run_many(const sim::Scenario& scenario,
                            std::uint64_t trials, unsigned threads,
                            const sim::GuardPolicy& policy,
                            const SupervisorOptions* isolate = nullptr,
                            sim::CheckpointSession* session = nullptr,
                            std::uint64_t point = 0,
                            const sim::ProgressFn& progress = {});

}  // namespace rit::platform
