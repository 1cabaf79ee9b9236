// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts the same flags:
//   --trials=N    trials per sweep point (default per bench)
//   --scale=S     divide the paper's population/job sizes by S (default 10;
//                 --scale=1 reproduces the paper's exact parameters)
//   --points=P    sweep points between the paper's endpoints (default 5)
//   --seed=X      base seed
//   --graph=K     social graph family: ba|er|ws|star|path (default ba)
//   --threads=N   worker threads for the trial fan-out (default 0 =
//                 hardware concurrency; 1 = the guarded engine on one
//                 worker). Trials are seeded independently and merged
//                 in a fixed order, so counts/min/max/success rates are
//                 identical for every N; means agree to ~1e-12 (Welford
//                 merge-order rounding — see EXPERIMENTS.md)
//   --csv=PATH    also dump the series as CSV (default bench_results/<name>.csv,
//                 "none" disables)
//   --theoretical use the paper's literal round budget instead of
//                 run-to-completion (see DESIGN.md ambiguity #3)
//
// Robustness (see docs/robustness.md):
//   --max-trial-failures=N  tolerate up to N faulted trials per sweep point
//                           (quarantined into the fault ledger; default 0 =
//                           the first fault aborts, the historical behavior)
//   --trial-timeout-ms=T    post-hoc per-trial watchdog (0 = off)
//   --checkpoint=PATH       durable sweep checkpoint, written atomically
//   --checkpoint-every=K    also checkpoint every K trials within a point
//                           (0 = only at point boundaries)
//   --resume                resume from --checkpoint (refuses on any
//                           config/seed/thread mismatch); resumed sweeps are
//                           bit-identical to uninterrupted ones
//
// Process isolation (see docs/robustness.md, "Process isolation &
// supervision"):
//   --supervised            run each sweep point through the shard
//                           supervisor: K forked worker processes, one per
//                           residue class, monitored for signal deaths,
//                           OOM kills, and hangs. Bit-identical to the
//                           in-process engine at --threads=K.
//   --shards=K              worker processes (default 0 = hardware
//                           concurrency; replaces --threads when
//                           supervised)
//   --shard-mem-mb=M        per-shard RLIMIT_AS budget in MB (0 = off)
//   --shard-cpu-s=S         per-shard RLIMIT_CPU budget in seconds (0 = off)
//   --shard-retries=R       worker deaths tolerated per shard before the
//                           shard is quarantined and the sweep aborts
//                           (default 2); relaunches back off exponentially
//   --heartbeat-timeout-ms=T  SIGKILL a shard whose heartbeat stalls for T
//                           ms (0 = watchdog off); with --checkpoint the
//                           relaunch resumes from the shard's last cut
//
// Observability (see docs/observability.md):
//   --trace-out=PATH    write a Chrome-trace / Perfetto JSON of every span
//   --metrics-out=PATH  write the global metrics registry as JSON
//   --json=PATH         machine-readable run summary (phase breakdown +
//                       metrics; default bench_results/BENCH_<name>.json,
//                       "none" disables)
//   --json-logs         switch rit::log to the structured JSON line format
//   --perf-counters     sample hardware counters (cycles, instructions,
//                       cache/branch misses, task-clock) per phase via
//                       perf_event_open; degrades to absent fields when the
//                       syscall is unpermitted (containers, non-Linux)
//
// Every bench prints a per-phase timing breakdown table at exit (finish()).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/csv.h"
#include "cli/table.h"
#include "sim/guarded.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace rit::bench {

/// Mutable per-sweep state shared by every copy of a BenchOptions: the
/// lazily opened checkpoint session, the running grid-point index, and the
/// accumulated fault ledger that finish() reports.
struct SweepState {
  std::unique_ptr<sim::CheckpointSession> session;
  std::uint64_t next_point{0};
  sim::FaultLedger faults;
};

struct BenchOptions {
  std::uint64_t trials{3};
  double scale{10.0};
  std::uint32_t points{5};
  std::uint64_t seed{42};
  sim::GraphKind graph{sim::GraphKind::kBarabasiAlbert};
  /// Worker threads for the trial fan-out (0 = hardware concurrency,
  /// 1 = one worker).
  unsigned threads{0};
  std::string csv_path;  // empty = disabled
  bool theoretical{false};
  /// fig9 only: keep the paper's exact supply/demand ratio (--paper-ratio).
  bool paper_ratio{false};
  /// ablation_rounds only: use the paper's K_max = 20 regime (--paper-kmax).
  bool paper_kmax{false};

  /// Bench name (set by parse_options; keys the default output paths).
  std::string name;
  /// Chrome-trace JSON output path (--trace-out, empty = disabled).
  std::string trace_path;
  /// Metrics registry JSON output path (--metrics-out, empty = disabled).
  std::string metrics_path;
  /// Machine-readable run summary path (--json, empty = disabled).
  std::string summary_path;
  /// Sample hardware counters per phase (--perf-counters).
  bool perf_counters{false};
  /// Steady-clock ns at parse_options; finish() measures end-to-end from it.
  std::uint64_t start_ns{0};

  /// Fault tolerance (--max-trial-failures, --trial-timeout-ms); defaults
  /// preserve the historical strict behavior.
  std::uint64_t max_trial_failures{0};
  double trial_timeout_ms{0.0};
  /// Checkpoint/resume (--checkpoint, --checkpoint-every, --resume).
  std::string checkpoint_path;  // empty = disabled
  std::uint64_t checkpoint_every{0};
  bool resume{false};
  /// Process isolation (--supervised and friends); see
  /// platform::SupervisorOptions for the semantics of each knob.
  bool supervised{false};
  unsigned shards{0};
  std::uint64_t shard_mem_mb{0};
  std::uint64_t shard_cpu_s{0};
  unsigned shard_retries{2};
  std::uint64_t heartbeat_timeout_ms{0};

  /// Shared across copies: run_point() advances it, finish() reports it.
  std::shared_ptr<SweepState> sweep{std::make_shared<SweepState>()};
};

/// Parses the standard flags; `name` picks the default CSV path. A bad
/// flag, including --trials below `min_trials`, prints one `error:` line
/// and exits 2.
BenchOptions parse_options(int argc, char** argv, const std::string& name,
                           std::uint64_t default_trials,
                           std::uint64_t min_trials = 1);

/// Applies the shared knobs (graph kind, seed, budget policy) to a scenario.
void apply_options(const BenchOptions& opts, sim::Scenario& scenario);

/// `value / scale`, floored, at least `min_value`.
std::uint32_t scaled(std::uint64_t value, double scale,
                     std::uint32_t min_value = 1);

/// `points` integers evenly spaced over [lo, hi] (inclusive, deduplicated).
std::vector<std::uint32_t> linspace(std::uint32_t lo, std::uint32_t hi,
                                    std::uint32_t points);

/// Runs one sweep point (opts.trials trials of `scenario`) through the
/// guarded engine, honoring the robustness flags: faults are quarantined
/// within the failure budget, and with --checkpoint each point is durably
/// saved (and skipped on --resume when already complete); --supervised
/// runs it through the shard supervisor instead. Every bench sweep loop
/// calls this; points must be run in a fixed order for the checkpoint's
/// point index to be meaningful.
sim::AggregateMetrics run_point(
    const BenchOptions& opts, const sim::Scenario& scenario,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress = {});

/// Prints the table to stdout with a title banner; writes the CSV when
/// enabled (creating the parent directory).
void emit(const std::string& title, const BenchOptions& opts,
          const std::vector<std::string>& header,
          const std::vector<std::vector<double>>& rows, int precision = 4);

/// Also renders an SVG line chart next to the CSV (same stem, .svg):
/// column 0 is x; `series_columns` picks the y columns to plot (labels from
/// the header). No-op when CSV output is disabled.
void emit_svg(const std::string& title, const BenchOptions& opts,
              const std::vector<std::string>& header,
              const std::vector<std::vector<double>>& rows,
              const std::vector<std::size_t>& series_columns);

/// Prints to stdout the per-phase breakdown table of the spans that began
/// at or after `since_ns` (obs::trace_now_ns()), under `title`, with their
/// coverage of the wall time since then. Call it between runs, when no
/// worker is recording: bench_scale prints one per rung, since finish()'s
/// table sums every rung it ran.
void print_breakdown_since(const std::string& title, std::uint64_t since_ns);

/// End-of-run observability report: stops tracing, prints the per-phase
/// timing breakdown (self time, i.e. phases are disjoint and sum to the
/// instrumented wall time), and writes the --trace-out / --metrics-out /
/// --json artifacts that were requested. Call once at the end of main().
/// The report goes to stdout, or to `out`: bench_micro sends it to stderr,
/// so that its stdout holds only google-benchmark's output.
void finish(const BenchOptions& opts);
void finish(const BenchOptions& opts, std::ostream& out);

}  // namespace rit::bench
