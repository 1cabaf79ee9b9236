// Shared plumbing for the figure-reproduction benches.
//
// Every bench accepts the same flags:
//   --trials=N    trials per sweep point (default per bench)
//   --scale=S     divide the paper's population/job sizes by S (default 10;
//                 --scale=1 reproduces the paper's exact parameters)
//   --points=P    sweep points between the paper's endpoints (default 5)
//   --seed=X      base seed
//   --graph=K     social graph family: ba|er|ws|star|path (default ba)
//   --threads=N   workers for the trial fan-out (default 0 = hardware
//                 concurrency; 1 = the guarded engine on one worker;
//                 under --supervised, forked shard processes). Trials
//                 are seeded independently and merged in a fixed order,
//                 so counts/min/max/success rates are identical for every
//                 N; means agree to ~1e-12 (Welford merge-order rounding —
//                 see EXPERIMENTS.md)
//   --theoretical use the paper's literal round budget instead of
//                 run-to-completion (see DESIGN.md ambiguity #3)
//
// Sweep flags (cli/sweep_flags.h, docs/robustness.md), on the benches whose
// grid points go through run_point():
//   --max-trial-failures=N, --trial-timeout-ms=T  fault containment
//   --checkpoint=PATH, --checkpoint-every=K, --resume  durable progress;
//                           resumed sweeps are bit-identical to
//                           uninterrupted ones
//   --supervised            run each point in --threads forked worker
//                           processes, one per residue class, monitored for
//                           signal deaths, OOM kills, and hangs;
//                           bit-identical to the in-process engine at the
//                           same --threads
//   --shard-mem-mb=M, --shard-cpu-s=S, --shard-retries=R,
//   --heartbeat-timeout-ms=T  the shard budgets of --supervised
// The benches with their own trial loops (ablation_consensus, _dropout,
// _supply, fig9_sybil_utility, redteam, related_mechanisms) refuse these
// as unknown flags rather than ignore them.
//
// Output (see docs/observability.md), the two flags bench_micro shares:
//   --out=DIR     the directory every file goes to (default bench_results;
//                 "none" writes no file): <stem>.csv and <stem>.svg per
//                 table, BENCH_<name>.json (options, wall time, per-phase
//                 breakdown, metrics registry), <name>.faults.csv when a
//                 fault was contained, and <name>.trace.json with --trace
//   --trace       also write the Chrome-trace / Perfetto JSON of every span
//
// Observability:
//   --perf-counters     sample hardware counters (cycles, instructions,
//                       cache/branch misses, task-clock) per phase via
//                       perf_event_open; degrades to absent fields when the
//                       syscall is unpermitted (containers, non-Linux)
//
// Every bench prints a per-phase timing breakdown table at exit (finish()).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/csv.h"
#include "cli/sweep_flags.h"
#include "cli/table.h"
#include "sim/checkpoint.h"
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
  bool theoretical{false};
  /// fig9 only: keep the paper's exact supply/demand ratio (--paper-ratio).
  bool paper_ratio{false};
  /// ablation_rounds only: use the paper's K_max = 20 regime (--paper-kmax).
  bool paper_kmax{false};

  /// Bench name (set by parse_options; names the output files).
  std::string name;
  /// Output directory (--out, empty = write no file).
  std::string out_dir;
  /// Write <name>.trace.json under out_dir (--trace).
  bool trace{false};
  /// Sample hardware counters per phase (--perf-counters).
  bool perf_counters{false};
  /// Steady-clock ns at parse_options; finish() measures end-to-end from it.
  std::uint64_t start_ns{0};

  /// The sweep flags; all defaults on a bench that runs its own loop.
  cli::SweepFlags sweep;

  /// Shared across copies: run_point() advances it, finish() reports it.
  std::shared_ptr<SweepState> state{std::make_shared<SweepState>()};
};

/// Whether a bench runs its grid points through run_point(), and so takes
/// the sweep flags, or runs its own trial loop and refuses them.
enum class Points { kRunPoint, kOwnLoop };

/// Parses the standard flags; `name` names the output files. A bad flag,
/// including --trials below `min_trials`, prints one `error:` line and
/// exits 2.
BenchOptions parse_options(int argc, char** argv, const std::string& name,
                           std::uint64_t default_trials,
                           Points points = Points::kRunPoint,
                           std::uint64_t min_trials = 1);

/// Reads --out and --trace into `opts`; throws CheckFailure on a bad
/// value. parse_options calls it, and bench_micro, which takes no other
/// flag of ours.
void read_output_flags(cli::Args& args, BenchOptions& opts);

/// Applies the shared knobs (graph kind, seed, budget policy) to a scenario.
void apply_options(const BenchOptions& opts, sim::Scenario& scenario);

/// `value / scale`, floored, at least `min_value`.
std::uint32_t scaled(std::uint64_t value, double scale,
                     std::uint32_t min_value = 1);

/// `points` integers evenly spaced over [lo, hi] (inclusive, deduplicated).
std::vector<std::uint32_t> linspace(std::uint32_t lo, std::uint32_t hi,
                                    std::uint32_t points);

/// Runs one sweep point (opts.trials trials of `scenario`) through
/// platform::run_many, honoring the sweep flags: faults are quarantined
/// within the failure budget, with --checkpoint each point is durably
/// saved (and skipped on --resume when already complete), and
/// --supervised forks its shards. Points must be run in a fixed order for
/// the checkpoint's point index to be meaningful.
sim::AggregateMetrics run_point(
    const BenchOptions& opts, const sim::Scenario& scenario,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress = {});

/// Prints the table to stdout with a title banner; writes it to
/// `<out_dir>/<stem>.csv` (stem defaults to the bench name) unless
/// --out=none.
void emit(const std::string& title, const BenchOptions& opts,
          const std::vector<std::string>& header,
          const std::vector<std::vector<double>>& rows, int precision = 4,
          const std::string& stem = "");

/// Also renders an SVG line chart next to the CSV (`<stem>.svg`): column 0
/// is x; `series_columns` picks the y columns to plot (labels from the
/// header). No-op under --out=none.
void emit_svg(const std::string& title, const BenchOptions& opts,
              const std::vector<std::string>& header,
              const std::vector<std::vector<double>>& rows,
              const std::vector<std::size_t>& series_columns,
              const std::string& stem = "");

/// Prints to stdout the per-phase breakdown table of the spans that began
/// at or after `since_ns` (obs::trace_now_ns()), under `title`, with their
/// coverage of the wall time since then. Call it between runs, when no
/// worker is recording: bench_scale prints one per rung, since finish()'s
/// table sums every rung it ran.
void print_breakdown_since(const std::string& title, std::uint64_t since_ns);

/// End-of-run observability report: stops tracing, prints the per-phase
/// timing breakdown (self time, i.e. phases are disjoint and sum to the
/// instrumented wall time), and writes BENCH_<name>.json, the faults CSV
/// and, with --trace, the trace under --out. Call once at the end of main().
/// The report goes to stdout, or to `out`: bench_micro sends it to stderr,
/// so that its stdout holds only google-benchmark's output.
void finish(const BenchOptions& opts);
void finish(const BenchOptions& opts, std::ostream& out);

}  // namespace rit::bench
