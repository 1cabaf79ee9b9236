// The child side of the process-isolated sweep supervisor.
//
// A shard worker is a forked copy of the sweep process that runs one
// residue class of the trial space — shard s of K handles global trials
// s, s+K, s+2K, … — serially, under rlimit budgets, with its own
// CheckpointSession so a killed shard resumes from its last cut. The fold
// order within a shard is exactly the fold order the in-process guarded
// runner's worker s would use at threads=K, which is what makes a
// supervised run bit-identical to an in-process one (see
// docs/robustness.md, "Process isolation & supervision").
//
// Communication with the supervisor:
//   * a shared-memory breadcrumb page (mmap'd before fork) carries the
//     last phase/trial/seed, a heartbeat counter the watchdog monitors,
//     and a running done-count for progress reporting;
//   * a pipe carries the shard's final GuardedResult (serialized through
//     the checkpoint format) or a structured error;
//   * the exit status carries the outcome class (see ShardExit).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "sim/checkpoint.h"
#include "sim/guarded.h"

namespace rit::platform {

/// Exit codes a shard worker uses; anything else (or a signal death) is a
/// worker death the supervisor retries.
enum ShardExit : int {
  kShardOk = 0,
  /// A CheckFailure escaped the shard's guarded run (failure budget
  /// exhausted, checkpoint binding mismatch): deterministic, so the
  /// supervisor aborts the sweep instead of retrying.
  kShardCheckFailure = 2,
  /// Any other exception escaped: also fatal, also not retried.
  kShardError = 3,
};

/// One cache line of shared memory per shard, written by the child and
/// read by the supervisor's watchdog. The trial/seed/phase triple is
/// guarded by a seqlock (`seq` is odd while the child writes) so the
/// parent can take a consistent snapshot of a crashing child's last
/// breadcrumb without locks; the counters are plain atomics.
struct BreadcrumbPage {
  std::atomic<std::uint64_t> seq{0};
  std::uint64_t trial{0};  // global trial index
  std::uint64_t seed{0};   // that trial's mechanism seed
  char phase[32]{};        // last phase label, NUL-terminated
  /// Bumped at least once per trial; the watchdog declares a hang when it
  /// stops advancing for longer than the heartbeat timeout.
  std::atomic<std::uint64_t> heartbeat{0};
  /// Trials restored from the shard's cut plus those started this attempt
  /// (progress reporting).
  std::atomic<std::uint64_t> done{0};
  /// Set by a body about to exhaust memory on purpose (the test OOM bomb),
  /// so the supervisor can attribute the death to OOM with certainty.
  std::atomic<std::uint32_t> oom{0};

  /// Child: publish a new breadcrumb (seqlock write + heartbeat bump).
  void begin_trial(std::uint64_t global_trial, std::uint64_t trial_seed);
  /// Child: update only the phase label (seqlock write + heartbeat bump).
  void note_phase(const char* label);
  /// Parent: consistent snapshot; spins while a write is in flight.
  void snapshot(std::uint64_t* out_trial, std::uint64_t* out_seed,
                std::string* out_phase) const;
};
// The watchdog reads these from another process: they must be lock-free
// atomics or the seqlock degenerates into a cross-process deadlock.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "BreadcrumbPage needs lock-free atomics to live in shared "
              "memory across fork()");

/// The breadcrumb page of the shard currently running in this process
/// (nullptr outside a shard worker). Trial bodies that stage their work —
/// the scenario body in supervisor.cpp — call note_phase() through this so
/// the supervisor's forensics name the stage that died.
BreadcrumbPage* current_breadcrumb();
void set_current_breadcrumb(BreadcrumbPage* page);
/// note_phase on the current breadcrumb; no-op when not in a shard worker.
void note_phase(const char* label);

/// Everything a forked child needs to run its shard. All pointers/handles
/// are inherited across fork; the child never touches the parent's
/// checkpoint file, only its own `<checkpoint>.shard<k>` sibling.
struct ShardJob {
  std::uint64_t trials{0};      // global trial count for the whole point
  unsigned shard{0};            // this shard's residue class
  unsigned shard_count{1};      // K
  sim::GuardPolicy policy;
  /// Called with global trial indices, like an in-process run's body.
  const sim::TrialBody* body{nullptr};
  const sim::TrialSeedFn* seed_of{nullptr};
  /// Shard checkpoint session params; empty path disables checkpointing
  /// (a retried shard then replays from trial 0 — still deterministic).
  sim::CheckpointSession::Params session;
  bool use_session{false};
  BreadcrumbPage* page{nullptr};
  int result_fd{-1};            // write end of the result pipe
  /// Parent pid at fork time: with PR_SET_PDEATHSIG there is a race where
  /// the parent dies before the prctl lands; the child re-checks.
  int parent_pid{0};
  /// rlimit budgets (0 = unlimited). mem is RLIMIT_AS in MB — Linux cannot
  /// enforce RSS directly, so the address-space budget stands in for it.
  std::uint64_t mem_mb{0};
  std::uint64_t cpu_s{0};
};

/// Number of global trials shard s of K owns (the residue class size).
std::uint64_t shard_trial_count(std::uint64_t trials, unsigned shard,
                                unsigned shard_count);

/// Runs `job` in the forked child and never returns: sets the death
/// signal, applies rlimits, runs the shard's residue class serially,
/// calling the body with global trial indices, rewrites ledger entries to
/// global indices, streams the result over the pipe, and _exit()s with a
/// ShardExit code.
[[noreturn]] void run_shard_child(const ShardJob& job);

/// Serialization of a shard's GuardedResult for the result pipe (reuses
/// the checksummed checkpoint format; exposed for tests).
std::string serialize_shard_result(const sim::GuardedResult& result);
/// Parses it back; `ok=false` with a reason when the payload is the
/// structured error form instead.
struct ShardPayload {
  bool ok{false};
  std::string error;
  sim::GuardedResult result;
};
ShardPayload parse_shard_payload(const std::string& content);
/// The structured error form (CheckFailure text from a dying shard).
std::string serialize_shard_error(const std::string& what);

}  // namespace rit::platform
