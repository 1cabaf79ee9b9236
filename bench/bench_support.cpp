#include "bench_support.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "cli/svg_chart.h"
#include "common/atomic_file.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/format_util.h"
#include "common/log.h"
#include "common/num_io.h"
#include "obs/obs.h"
#include "obs/perf_counters.h"
#include "obs/trace_export.h"
#include "platform/supervisor.h"

namespace rit::bench {

namespace {

// Reads and validates the standard flags; throws CheckFailure on an
// unknown flag, a malformed value or a bad combination. --help prints the
// flags on stdout and exits 0.
BenchOptions read_flags(int argc, char** argv, const std::string& name,
                        std::uint64_t default_trials, Points points,
                        std::uint64_t min_trials) {
  cli::Args args(argc, argv);
  BenchOptions opts;
  opts.name = name;
  opts.trials = args.get_u64("trials", default_trials);
  opts.scale = args.get_double("scale", 10.0);
  opts.points = args.get_u32("points", 5);
  opts.seed = args.get_u64("seed", 42);
  opts.graph = sim::parse_graph_kind(args.get_string("graph", "ba"));
  opts.threads = args.get_u32("threads", 0);
  opts.theoretical = args.get_bool("theoretical", false);
  opts.paper_ratio = args.get_bool("paper-ratio", false);
  opts.paper_kmax = args.get_bool("paper-kmax", false);
  read_output_flags(args, opts);
  if (points == Points::kRunPoint) opts.sweep = cli::read_sweep_flags(args);
  opts.perf_counters = args.get_bool("perf-counters", false);
  if (args.get_bool("json-logs", false)) {
    log::set_format(log::Format::kJson);
  }
  // Benches are interactive tools: surface info-level progress (the default
  // sink level is warn, tuned for library use).
  log::set_level(log::Level::kInfo);
  if (args.get_bool("help", false)) {
    std::cout << "usage: bench_" << name << " [--flag=value ...]\nflags:\n"
              << args.usage();
    std::exit(0);
  }
  args.finish();
  require_usage(opts.scale >= 1.0, "--scale must be >= 1");
  require_usage(opts.points >= 2, "--points must be >= 2");
  require_usage(opts.trials >= min_trials,
                "--trials must be >= " + format_u64(min_trials));
  return opts;
}

}  // namespace

void read_output_flags(cli::Args& args, BenchOptions& opts) {
  const std::string out = args.get_string("out", "bench_results");
  opts.out_dir = out == "none" ? "" : out;
  opts.trace = args.get_bool("trace", false);
}

BenchOptions parse_options(int argc, char** argv, const std::string& name,
                           std::uint64_t default_trials, Points points,
                           std::uint64_t min_trials) {
  BenchOptions opts;
  try {
    opts = read_flags(argc, argv, name, default_trials, points, min_trials);
  } catch (const CheckFailure& e) {
    // A bad flag is a usage error: report it the way `ritcs` does.
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }

  // Record every span from here on; finish() turns this into the per-phase
  // breakdown. When the build has RIT_OBS_ENABLED=0 the trace simply stays
  // empty and finish() reports that instrumentation is compiled out.
  obs::start_tracing();
  // Counter profiling must be armed before any worker thread exists so the
  // inherited run-level set covers them. Unavailability is fine: spans just
  // skip the sampling and the counter table prints "-" for them.
  if (opts.perf_counters) obs::start_perf_counters();
  opts.start_ns = obs::trace_now_ns();
  return opts;
}

void apply_options(const BenchOptions& opts, sim::Scenario& scenario) {
  scenario.graph = opts.graph;
  scenario.seed = opts.seed;
  scenario.mechanism.round_budget_policy =
      opts.theoretical ? core::RoundBudgetPolicy::kTheoretical
                       : core::RoundBudgetPolicy::kRunToCompletion;
}

std::uint32_t scaled(std::uint64_t value, double scale,
                     std::uint32_t min_value) {
  const auto v = static_cast<std::uint32_t>(static_cast<double>(value) / scale);
  return std::max(min_value, v);
}

std::vector<std::uint32_t> linspace(std::uint32_t lo, std::uint32_t hi,
                                    std::uint32_t points) {
  RIT_CHECK(lo <= hi);
  std::vector<std::uint32_t> out;
  out.reserve(points);
  for (std::uint32_t i = 0; i < points; ++i) {
    const double t = points == 1 ? 0.0
                                 : static_cast<double>(i) /
                                       static_cast<double>(points - 1);
    out.push_back(lo + static_cast<std::uint32_t>(
                           t * static_cast<double>(hi - lo) + 0.5));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Hash of every flag that shapes what a sweep computes. Binds a checkpoint
/// file to this bench + configuration: resuming under any other flag set
/// would silently mix incompatible partial results, so the session refuses.
std::uint64_t sweep_config_hash(const BenchOptions& opts) {
  std::string fp = opts.name;
  const auto field = [&fp](const std::string& v) {
    fp += '|';
    fp += v;
  };
  field(format_u64(opts.trials));
  field(format_double(opts.scale, 6));
  field(format_u64(opts.points));
  field(sim::to_string(opts.graph));
  field(opts.theoretical ? "theoretical" : "run-to-completion");
  field(opts.paper_ratio ? "paper-ratio" : "-");
  field(opts.paper_kmax ? "paper-kmax" : "-");
  field(format_u64(opts.sweep.policy.max_trial_failures));
  field(format_double(opts.sweep.policy.trial_timeout_ms, 6));
  // --threads is deliberately NOT hashed: it is bit-identical by
  // construction (fixed partition, fixed merge order), so a checkpoint
  // written at one setting resumes correctly at another.
  return fnv1a64(fp);
}

sim::AggregateMetrics run_sweep_point(
    const BenchOptions& opts, const sim::Scenario& scenario,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  SweepState& state = *opts.state;
  if (state.next_point == 0) {
    state.session = cli::open_session(opts.sweep, sweep_config_hash(opts),
                                      opts.seed, opts.threads, opts.trials);
  }
  const sim::GuardedResult r = platform::run_many(
      scenario, opts.trials, opts.threads, opts.sweep.policy,
      opts.sweep.isolation(), state.session.get(), state.next_point,
      progress);
  ++state.next_point;
  state.faults.merge(r.faults);
  return r.metrics;
}

}  // namespace

sim::AggregateMetrics run_point(
    const BenchOptions& opts, const sim::Scenario& scenario,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  try {
    return run_sweep_point(opts, scenario, progress);
  } catch (const CheckFailure& e) {
    // A refused checkpoint or a sweep over its failure budget ends the
    // bench the way `ritcs` ends: one error line and exit code 2.
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

namespace {

// `<out_dir>/<file>`; empty under --out=none.
std::string out_path(const BenchOptions& opts, const std::string& file) {
  if (opts.out_dir.empty()) return "";
  return (std::filesystem::path(opts.out_dir) / file).string();
}

}  // namespace

void emit(const std::string& title, const BenchOptions& opts,
          const std::vector<std::string>& header,
          const std::vector<std::vector<double>>& rows, int precision,
          const std::string& stem) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "(trials=" << opts.trials << " scale=1/" << opts.scale
            << " graph=" << sim::to_string(opts.graph)
            << (opts.theoretical ? " budget=theoretical"
                                 : " budget=run-to-completion")
            << " threads=" << rit::resolve_threads(opts.threads, opts.trials)
            << (opts.sweep.isolate ? " supervised" : "") << ")\n";
  cli::Table table(header);
  for (const auto& row : rows) table.add_numeric_row(row, precision);
  table.print(std::cout);
  const std::string path =
      out_path(opts, (stem.empty() ? opts.name : stem) + ".csv");
  if (!path.empty()) {
    cli::CsvWriter csv(path, header);
    for (const auto& row : rows) csv.add_numeric_row(row, 6);
    csv.close();  // atomic commit; throws (rather than logs) on failure
    std::cout << "csv: " << path << "\n";
  }
  std::cout << "\n";
}

void emit_svg(const std::string& title, const BenchOptions& opts,
              const std::vector<std::string>& header,
              const std::vector<std::vector<double>>& rows,
              const std::vector<std::size_t>& series_columns,
              const std::string& stem) {
  const std::string path =
      out_path(opts, (stem.empty() ? opts.name : stem) + ".svg");
  if (path.empty() || rows.empty()) return;
  std::vector<cli::Series> series;
  for (std::size_t c : series_columns) {
    RIT_CHECK_MSG(c > 0 && c < header.size(),
                  "series column " << c << " out of range");
    cli::Series s;
    s.label = header[c];
    for (const auto& row : rows) s.points.emplace_back(row[0], row[c]);
    series.push_back(std::move(s));
  }
  cli::ChartOptions chart;
  chart.title = title;
  chart.x_label = header[0];
  chart.y_label = series_columns.size() == 1 ? header[series_columns[0]] : "";
  cli::write_line_chart(path, series, chart);
  std::cout << "svg: " << path << "\n\n";
}

namespace {

void write_summary_json(const std::string& path, const BenchOptions& opts,
                        double wall_ms,
                        const std::vector<obs::PhaseStat>& phases,
                        const obs::MetricsSnapshot& metrics) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"" << json_escape(opts.name) << "\",\n";
  out << "  \"options\": {\"trials\": " << opts.trials
      << ", \"scale\": " << opts.scale << ", \"points\": " << opts.points
      << ", \"seed\": " << opts.seed << ", \"graph\": \""
      << sim::to_string(opts.graph) << "\", \"budget\": \""
      << (opts.theoretical ? "theoretical" : "run-to-completion")
      << "\", \"threads\": " << opts.threads << ", \"threads_resolved\": "
      << rit::resolve_threads(opts.threads, opts.trials) << "},\n";
  out << "  \"wall_ms\": " << format_double(wall_ms, 3) << ",\n";
  out << "  \"dropped_spans\": " << obs::dropped_spans() << ",\n";
  out << "  \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const obs::PhaseStat& ph = phases[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(ph.name)
        << "\", \"count\": " << ph.count << ", \"total_ms\": "
        << format_double(ph.total_ms, 3) << ", \"self_ms\": "
        << format_double(ph.self_ms, 3) << "}";
  }
  out << (phases.empty() ? "],\n" : "\n  ],\n");
  out << "  \"metrics\": " << metrics.to_json();
  out << "}\n";
  write_file_atomic(path, out.str());
}

// Prints the per-phase self-time table of `phases` under `title`, and
// how much of `wall_ms` the phases cover.
void print_breakdown(std::ostream& out, const std::string& title,
                     const std::vector<obs::PhaseStat>& phases,
                     double wall_ms) {
  if (phases.empty()) {
    out << "(no spans recorded"
#if !RIT_OBS_ENABLED
        << "; observability compiled out (RIT_OBS_ENABLED=0)"
#endif
        << ")\n";
    return;
  }
  double instrumented_ms = 0.0;
  for (const obs::PhaseStat& ph : phases) instrumented_ms += ph.self_ms;
  out << "=== per-phase breakdown — " << title << " ===\n";
  cli::Table table({"phase", "count", "total_ms", "self_ms", "self_%"});
  for (const obs::PhaseStat& ph : phases) {
    table.add_row({ph.name, format_u64(ph.count),
                   format_double(ph.total_ms, 3), format_double(ph.self_ms, 3),
                   format_double(instrumented_ms > 0.0
                                     ? 100.0 * ph.self_ms / instrumented_ms
                                     : 0.0,
                                 1)});
  }
  table.print(out);
  out << "phases sum to " << format_double(instrumented_ms, 1) << " ms of "
      << format_double(wall_ms, 1) << " ms end-to-end ("
      << format_double(wall_ms > 0.0 ? 100.0 * instrumented_ms / wall_ms : 0.0,
                       1)
      << "% coverage)";
  if (obs::dropped_spans() > 0) {
    out << "; " << obs::dropped_spans()
        << " spans dropped (buffer full — raise obs::set_trace_capacity)";
  }
  out << "\n";
}

}  // namespace

void finish(const BenchOptions& opts) { finish(opts, std::cout); }

void print_breakdown_since(const std::string& title, std::uint64_t since_ns) {
  const double wall_ms =
      static_cast<double>(obs::trace_now_ns() - since_ns) / 1e6;
  std::vector<obs::TraceEvent> events = obs::collect_trace();
  std::erase_if(events, [&](const obs::TraceEvent& e) {
    return e.begin_ns < since_ns;
  });
  print_breakdown(std::cout, title, obs::phase_breakdown(std::move(events)),
                  wall_ms);
}

void finish(const BenchOptions& opts, std::ostream& out) {
  const double wall_ms =
      static_cast<double>(obs::trace_now_ns() - opts.start_ns) / 1e6;
  obs::stop_tracing();
  if (opts.perf_counters) obs::stop_perf_counters();
  const std::vector<obs::TraceEvent> events = obs::collect_trace();
  const std::vector<obs::PhaseStat> phases = obs::phase_breakdown(events);
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  const obs::PerfAvailability perf_avail = obs::perf_availability();
  const std::vector<obs::PerfPhaseStat> perf_phases =
      opts.perf_counters ? obs::collect_perf_phase_stats()
                         : std::vector<obs::PerfPhaseStat>{};

  print_breakdown(out, opts.name, phases, wall_ms);

  if (opts.perf_counters) {
    if (!perf_avail.any()) {
      out << "(perf counters requested but unavailable: "
                   "perf_event_open unpermitted and no alloc hook — "
                   "timings only)\n";
    } else if (!perf_phases.empty()) {
      const auto cell = [](bool avail, std::uint64_t v) {
        return avail ? format_with_commas(static_cast<long long>(v))
                     : std::string("-");
      };
      out << "=== per-phase counters — " << opts.name << " ===\n";
      cli::Table table({"phase", "spans", "cycles", "instructions", "ipc",
                        "cache_miss%", "branch_miss", "allocs"});
      for (const obs::PerfPhaseStat& pp : perf_phases) {
        const std::uint64_t cycles = pp.totals[obs::kPerfCycles];
        const std::uint64_t instr = pp.totals[obs::kPerfInstructions];
        const std::uint64_t refs = pp.totals[obs::kPerfCacheRefs];
        const std::uint64_t misses = pp.totals[obs::kPerfCacheMisses];
        const bool ipc_ok = perf_avail.counter[obs::kPerfCycles] &&
                            perf_avail.counter[obs::kPerfInstructions] &&
                            cycles > 0;
        const bool miss_ok = perf_avail.counter[obs::kPerfCacheRefs] &&
                             perf_avail.counter[obs::kPerfCacheMisses] &&
                             refs > 0;
        table.add_row(
            {pp.name, format_u64(pp.count),
             cell(perf_avail.counter[obs::kPerfCycles], cycles),
             cell(perf_avail.counter[obs::kPerfInstructions], instr),
             ipc_ok ? format_double(static_cast<double>(instr) /
                                        static_cast<double>(cycles),
                                    2)
                    : "-",
             miss_ok ? format_double(100.0 * static_cast<double>(misses) /
                                         static_cast<double>(refs),
                                     1)
                     : "-",
             cell(perf_avail.counter[obs::kPerfBranchMisses],
                  pp.totals[obs::kPerfBranchMisses]),
             cell(perf_avail.alloc_hook, pp.alloc_count)});
      }
      table.print(out);
    }
  }

  // Quarantined-fault report: silent by default (no faults → no output, so
  // default runs stay byte-identical), loud when anything was contained.
  const sim::FaultLedger& faults = opts.state->faults;
  if (!faults.empty()) {
    out << "=== quarantined faults — " << opts.name << " ===\n"
              << faults.markdown();
    const std::string path = out_path(opts, opts.name + ".faults.csv");
    if (!path.empty()) {
      cli::CsvWriter csv(path, {"trial", "seed", "kind", "phase", "reason"});
      for (const sim::TrialFault& f : faults.sorted_by_trial()) {
        csv.add_row({format_u64(f.trial), format_u64(f.seed),
                     sim::to_string(f.kind), f.phase, f.reason});
      }
      csv.close();
      out << "faults csv: " << path << "\n";
    }
  }

  const std::string trace =
      opts.trace ? out_path(opts, opts.name + ".trace.json") : "";
  if (!trace.empty()) {
    obs::write_chrome_trace(trace, events);
    out << "trace: " << trace
        << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  const std::string summary = out_path(opts, "BENCH_" + opts.name + ".json");
  if (!summary.empty()) {
    write_summary_json(summary, opts, wall_ms, phases, metrics);
    out << "summary: " << summary << "\n";
  }
  out << "\n";
}

}  // namespace rit::bench
