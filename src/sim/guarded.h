// The in-process trial engine with containment and checkpoints; threads=1
// is simply one worker. The sweeps that go through it are the grid points
// of the figure benches and `ritcs --mode=run` (platform::run_many), each
// supervised shard worker, and perfbench's paper_sweep. Loops that need
// neither faults nor checkpoints call rit::parallel_for_strided directly:
// the own trial loops of seven benches (ablation_consensus, _dropout,
// _graph, _gridbase, _h_sweep, _supply, related_mechanisms) and
// attack::run_sybil_experiment.
//
// run_trials_guarded() runs trials on the deterministic execution model of
// common/parallel.h — strided static partition, per-worker accumulators
// merged in worker-index order — and layers on:
//
//   * containment — a trial that throws, returns non-finite metrics, or
//     exceeds the watchdog deadline lands in the FaultLedger instead of
//     aborting; the failure budget (max_trial_failures, default 0) decides
//     when containment gives up and the run aborts with a CheckFailure.
//     The first fault with a default policy aborts the same way at every
//     thread count.
//   * checkpointing — with a CheckpointSession, trials run in
//     checkpoint-interval chunks with a barrier and an atomic state save
//     between chunks. Chunking does not change which worker runs which
//     trial or the per-worker fold order, so checkpointed (and resumed)
//     runs produce bit-identical aggregates to uninterrupted ones.
//
// Fault-injection tests wrap the body they pass in (see src/testkit/); the
// engine itself carries no injector.
//
// Every trial is timed into the `sim.trial_ms` stat and reservoir of the
// global metrics registry, whatever the thread count. The process-level
// wrapper around this engine is platform::run_trials_supervised, and the
// scenario-driven form of both is platform::run_many.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/rit.h"
#include "sim/checkpoint.h"
#include "sim/parallel.h"

namespace rit::sim {

struct GuardPolicy {
  /// Contained faults tolerated before the run aborts. 0 (the default)
  /// preserves the strict behavior: the first fault aborts the sweep.
  std::uint64_t max_trial_failures{0};
  /// Per-trial watchdog deadline in steady-clock milliseconds; 0 = off.
  /// Post-hoc semantics: the trial's elapsed time is checked after it
  /// returns (standard C++ cannot preempt a wedged thread), and an
  /// over-deadline trial is recorded as a timeout fault with its metrics
  /// discarded. See docs/robustness.md.
  double trial_timeout_ms{0.0};
};

/// The trial body: runs trial `trial` using per-worker scratch `ws` and
/// returns its metrics. `phase` starts as "trial"; bodies that stage their
/// work update it as they go so a fault names the stage that died.
using TrialBody = std::function<TrialMetrics(
    std::uint64_t trial, core::RitWorkspace& ws, std::string* phase)>;

/// Maps a trial index to the seed recorded in its ledger entry (for repro
/// commands). Defaults to the identity when empty.
using TrialSeedFn = std::function<std::uint64_t(std::uint64_t trial)>;

/// Runs `trials` trials of `body` under `policy`, fanned out over
/// `threads` workers (0 = hardware concurrency). `session`, when non-null,
/// enables checkpoint/resume for grid point `point`; its thread binding
/// must match the resolved thread count. Aborts (budget exhausted) throw
/// CheckFailure; whatever the session's after-save hook throws propagates.
GuardedResult run_trials_guarded(std::uint64_t trials, unsigned threads,
                                 const GuardPolicy& policy,
                                 const TrialBody& body,
                                 const TrialSeedFn& seed_of = {},
                                 CheckpointSession* session = nullptr,
                                 std::uint64_t point = 0,
                                 const ProgressFn& progress = {});

}  // namespace rit::sim
