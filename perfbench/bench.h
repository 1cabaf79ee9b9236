// Shared declarations of the repo benchmark.
//
// The benchmark calls the public entry points of sim, graph, tree and core on
// inputs it generates from its --seed, times each call from outside, and
// checks every mechanism result. See README.md in this directory for the
// workloads and the metric-to-layer map.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/rit.h"
#include "obs/trace.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace perfbench {

namespace core = rit::core;
namespace sim = rit::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
};

struct WorkloadSpec {
  const char* name;
  /// Population per sweep point, largest first (one point for the closed
  /// loops).
  std::vector<std::uint32_t> users;
  std::uint32_t tasks_per_type;
  /// Trial threads: 1 = closed loop on the calling thread, >1 = the guarded
  /// engine.
  unsigned threads;
  /// Trials a run takes even when --seconds has passed.
  std::uint64_t min_trials;
};

/// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// The paper's Sec. 7 setup with every knob pinned, so a change of the
/// library's Scenario defaults cannot silently change the workload.
sim::Scenario make_scenario(std::uint32_t users, std::uint32_t tasks_per_type,
                            std::uint64_t seed);

/// The correctness gate: pathwise invariants on every mechanism result the
/// benchmark produced, plus agreement between run_trial and the direct run.
/// Thread-safe.
class Checker {
 public:
  /// Checks `result` (a run_rit_into on `inst` under `scenario.mechanism`);
  /// `trial`, when given, is what run_trial reported for the same instance.
  void check(const sim::Scenario& scenario, const sim::TrialInstance& inst,
             const core::RitResult& result, const sim::TrialMetrics* trial);
  /// Records an attempted trial that threw or was quarantined.
  void fail(const std::string& what);
  /// Records a failure of an already-counted trial.
  void fail_counted(const std::string& what);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  void report(const std::string& what);

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex mu_;
  int printed_{0};
};

/// Per-span-name hardware/allocation totals from obs/perf_counters,
/// accumulated over every traced segment of a run.
struct PerfTotals {
  std::uint64_t count{0};
  std::uint64_t instructions{0};
  std::uint64_t allocs{0};
};

/// Everything one run measured; main.cpp turns it into metrics.
struct RunRecord {
  unsigned threads{1};
  std::vector<double> setup_s;
  /// make_instance + run_trial, untraced trials only.
  std::vector<double> trial_s;
  /// make_instance + run_trial, traced trials only (trace mode).
  std::vector<double> traced_trial_s;
  /// One run_rit_into on a warm workspace.
  std::vector<double> mechanism_s;
  /// One reference unit (a fixed sort, no library code) per trial, timed on
  /// the trial's CPUs just before it (the sweep: before its direct run).
  std::vector<double> reference_s;
  std::uint64_t trials{0};
  /// Wall time of the trial engine (closed loop: sum of trial times).
  double engine_wall_s{0.0};
  /// Sum over engine calls of the busiest / mean worker's busy time.
  double worker_busy_max_s{0.0};
  double worker_busy_mean_s{0.0};
  /// Global obs counter deltas over the timed trials.
  std::uint64_t auctions_run{0};
  std::uint64_t trials_run{0};
  /// cra.rounds delta over the direct runs, and how many there were.
  std::uint64_t cra_rounds{0};
  std::uint64_t direct_runs{0};
  /// From round traces (trace mode): sum over CRA rounds that reached
  /// phase 2 of |alpha| and of min(q + m_i, |alpha|), over `band_runs`
  /// mechanism runs.
  double sorted_asks{0.0};
  double band_asks{0.0};
  std::uint64_t band_runs{0};
  std::vector<double> max_depth;
  double graph_edges{0.0};
  /// Instructions per trial, when perf_event_open is permitted.
  std::optional<double> trial_instructions;
  /// FNV-1a of the set-up run's allocation and payment vectors.
  std::uint64_t digest{0};
  std::vector<rit::obs::TraceEvent> events;
  std::map<std::string, PerfTotals> perf;
};

/// Runs one workload for opts.seconds and fills a RunRecord.
RunRecord run_workload(const WorkloadSpec& spec, const Options& opts,
                       Checker& checker);

/// Span aggregates over a trace, with self time computed from nesting.
struct SpanStat {
  std::uint64_t count{0};
  double total_s{0.0};
  double self_s{0.0};
};

struct TraceSummary {
  /// Spans inside a benchmark "bench.trial" span (that span included).
  std::map<std::string, SpanStat> in_trial;
  /// Every span of the trace.
  std::map<std::string, SpanStat> all;
  double trial_total_s{0.0};
};

TraceSummary summarize_trace(const std::vector<rit::obs::TraceEvent>& events);

/// Prints the per-layer self-time table and the coverage line to stdout;
/// returns the share of traced trial time covered by library spans.
double print_self_time_table(const TraceSummary& summary);

}  // namespace perfbench
