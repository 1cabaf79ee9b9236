#include "bench_support.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "cli/svg_chart.h"
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
                        std::uint64_t default_trials,
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
  opts.intra_threads = args.get_u32("intra-threads", 1);
  opts.theoretical = args.get_bool("theoretical", false);
  opts.paper_ratio = args.get_bool("paper-ratio", false);
  opts.paper_kmax = args.get_bool("paper-kmax", false);
  const std::string csv =
      args.get_string("csv", "bench_results/" + name + ".csv");
  opts.csv_path = csv == "none" ? "" : csv;
  opts.trace_path = args.get_string("trace-out", "");
  opts.metrics_path = args.get_string("metrics-out", "");
  opts.max_trial_failures = args.get_u64("max-trial-failures", 0);
  opts.trial_timeout_ms = args.get_double("trial-timeout-ms", 0.0);
  opts.checkpoint_path = args.get_string("checkpoint", "");
  opts.checkpoint_every = args.get_u64("checkpoint-every", 0);
  opts.resume = args.get_bool("resume", false);
  opts.supervised = args.get_bool("supervised", false);
  opts.shards = args.get_u32("shards", 0);
  opts.shard_mem_mb = args.get_u64("shard-mem-mb", 0);
  opts.shard_cpu_s = args.get_u64("shard-cpu-s", 0);
  opts.shard_retries = args.get_u32("shard-retries", 2);
  opts.heartbeat_timeout_ms = args.get_u64("heartbeat-timeout-ms", 0);
  const std::string summary =
      args.get_string("json", "bench_results/BENCH_" + name + ".json");
  opts.summary_path = summary == "none" ? "" : summary;
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
  require_usage(!opts.checkpoint_path.empty() || !opts.resume,
                "--resume requires --checkpoint=PATH");
  require_usage(!opts.checkpoint_path.empty() || opts.checkpoint_every == 0,
                "--checkpoint-every requires --checkpoint=PATH");
  require_usage(opts.trial_timeout_ms >= 0.0,
                "--trial-timeout-ms must be >= 0");
  require_usage(opts.supervised ||
                    (opts.shards == 0 && opts.shard_mem_mb == 0 &&
                     opts.shard_cpu_s == 0 && opts.heartbeat_timeout_ms == 0),
                "--shards/--shard-mem-mb/--shard-cpu-s/"
                "--heartbeat-timeout-ms require --supervised");
  return opts;
}

}  // namespace

BenchOptions parse_options(int argc, char** argv, const std::string& name,
                           std::uint64_t default_trials,
                           std::uint64_t min_trials) {
  BenchOptions opts;
  try {
    opts = read_flags(argc, argv, name, default_trials, min_trials);
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
  scenario.mechanism.intra_threads = opts.intra_threads;
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
  field(format_u64(opts.max_trial_failures));
  field(format_double(opts.trial_timeout_ms, 6));
  // --threads and --intra-threads are deliberately NOT hashed: both knobs
  // are bit-identical by construction (fixed partition, fixed merge order),
  // so a checkpoint written at one setting resumes correctly at another.
  return fnv1a64(fp);
}

}  // namespace

sim::AggregateMetrics run_point(
    const BenchOptions& opts, const sim::Scenario& scenario,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress) {
  SweepState& sweep = *opts.sweep;
  // Supervised runs partition by shard instead of thread; both knobs bind
  // the checkpoint the same way (partition width), so a checkpoint written
  // in-process at --threads=K resumes supervised at --shards=K and vice
  // versa — the partition, fold order, and merge order are identical.
  const unsigned resolved = rit::resolve_threads(
      opts.supervised ? opts.shards : opts.threads, opts.trials);
  if (!opts.checkpoint_path.empty() && !sweep.session) {
    sim::CheckpointSession::Params p;
    p.path = opts.checkpoint_path;
    p.config_hash = sweep_config_hash(opts);
    p.seed = opts.seed;
    p.threads = resolved;
    p.trials = opts.trials;
    p.every = opts.checkpoint_every;
    p.resume = opts.resume;
    sweep.session = std::make_unique<sim::CheckpointSession>(std::move(p));
  }
  sim::GuardPolicy policy;
  policy.max_trial_failures = opts.max_trial_failures;
  policy.trial_timeout_ms = opts.trial_timeout_ms;
  sim::GuardedResult r;
  if (opts.supervised) {
    platform::SupervisorOptions sup;
    sup.shards = opts.shards;
    sup.shard_mem_mb = opts.shard_mem_mb;
    sup.shard_cpu_s = opts.shard_cpu_s;
    sup.shard_retries = opts.shard_retries;
    sup.heartbeat_timeout_ms = opts.heartbeat_timeout_ms;
    sup.checkpoint_path = opts.checkpoint_path;
    sup.checkpoint_every = opts.checkpoint_every;
    sup.resume = opts.resume;
    sup.config_hash = sweep_config_hash(opts);
    sup.seed = opts.seed;
    r = platform::run_many_supervised(scenario, opts.trials, sup, policy,
                                      sweep.session.get(), sweep.next_point,
                                      progress);
  } else {
    r = sim::run_many_guarded(scenario, opts.trials, resolved, policy,
                              sweep.session.get(), sweep.next_point,
                              progress);
  }
  ++sweep.next_point;
  sweep.faults.merge(r.faults);
  return r.metrics;
}

void emit(const std::string& title, const BenchOptions& opts,
          const std::vector<std::string>& header,
          const std::vector<std::vector<double>>& rows, int precision) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "(trials=" << opts.trials << " scale=1/" << opts.scale
            << " graph=" << sim::to_string(opts.graph)
            << (opts.theoretical ? " budget=theoretical"
                                 : " budget=run-to-completion")
            << " threads=" << rit::resolve_threads(opts.threads, opts.trials);
  if (opts.supervised) {
    std::cout << " supervised shards="
              << rit::resolve_threads(opts.shards, opts.trials);
  }
  std::cout << ")\n";
  cli::Table table(header);
  for (const auto& row : rows) table.add_numeric_row(row, precision);
  table.print(std::cout);
  if (!opts.csv_path.empty()) {
    cli::CsvWriter csv(opts.csv_path, header);
    for (const auto& row : rows) csv.add_numeric_row(row, 6);
    csv.close();  // atomic commit; throws (rather than logs) on failure
    std::cout << "csv: " << opts.csv_path << "\n";
  }
  std::cout << "\n";
}

void emit_svg(const std::string& title, const BenchOptions& opts,
              const std::vector<std::string>& header,
              const std::vector<std::vector<double>>& rows,
              const std::vector<std::size_t>& series_columns) {
  if (opts.csv_path.empty() || rows.empty()) return;
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
  std::filesystem::path p(opts.csv_path);
  p.replace_extension(".svg");
  cli::write_line_chart(p.string(), series, chart);
  std::cout << "svg: " << p.string() << "\n\n";
}

namespace {

void write_summary_json(const BenchOptions& opts, double wall_ms,
                        const std::vector<obs::PhaseStat>& phases,
                        const obs::MetricsSnapshot& metrics) {
  const std::filesystem::path p(opts.summary_path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(opts.summary_path);
  RIT_CHECK_MSG(out.good(),
                "cannot open summary output file " << opts.summary_path);
  out << "{\n";
  out << "  \"bench\": \"" << json_escape(opts.name) << "\",\n";
  out << "  \"options\": {\"trials\": " << opts.trials
      << ", \"scale\": " << opts.scale << ", \"points\": " << opts.points
      << ", \"seed\": " << opts.seed << ", \"graph\": \""
      << sim::to_string(opts.graph) << "\", \"budget\": \""
      << (opts.theoretical ? "theoretical" : "run-to-completion")
      << "\", \"threads\": " << opts.threads << ", \"threads_resolved\": "
      << rit::resolve_threads(opts.threads, opts.trials)
      << ", \"intra_threads\": " << opts.intra_threads << "},\n";
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
}

}  // namespace

void finish(const BenchOptions& opts) {
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

  if (phases.empty()) {
    std::cout << "(no spans recorded"
#if !RIT_OBS_ENABLED
              << "; observability compiled out (RIT_OBS_ENABLED=0)"
#endif
              << ")\n";
  } else {
    double instrumented_ms = 0.0;
    for (const obs::PhaseStat& ph : phases) instrumented_ms += ph.self_ms;
    std::cout << "=== per-phase breakdown — " << opts.name << " ===\n";
    cli::Table table({"phase", "count", "total_ms", "self_ms", "self_%"});
    for (const obs::PhaseStat& ph : phases) {
      table.add_row({ph.name, format_u64(ph.count),
                     format_double(ph.total_ms, 3),
                     format_double(ph.self_ms, 3),
                     format_double(instrumented_ms > 0.0
                                       ? 100.0 * ph.self_ms / instrumented_ms
                                       : 0.0,
                                   1)});
    }
    table.print(std::cout);
    std::cout << "phases sum to " << format_double(instrumented_ms, 1)
              << " ms of " << format_double(wall_ms, 1)
              << " ms end-to-end ("
              << format_double(wall_ms > 0.0
                                   ? 100.0 * instrumented_ms / wall_ms
                                   : 0.0,
                               1)
              << "% coverage)";
    if (obs::dropped_spans() > 0) {
      std::cout << "; " << obs::dropped_spans()
                << " spans dropped (buffer full — raise "
                   "obs::set_trace_capacity)";
    }
    std::cout << "\n";
  }

  if (opts.perf_counters) {
    if (!perf_avail.any()) {
      std::cout << "(perf counters requested but unavailable: "
                   "perf_event_open unpermitted and no alloc hook — "
                   "timings only)\n";
    } else if (!perf_phases.empty()) {
      const auto cell = [](bool avail, std::uint64_t v) {
        return avail ? format_with_commas(static_cast<long long>(v))
                     : std::string("-");
      };
      std::cout << "=== per-phase counters — " << opts.name << " ===\n";
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
      table.print(std::cout);
    }
  }

  // Quarantined-fault report: silent by default (no faults → no output, so
  // default runs stay byte-identical), loud when anything was contained.
  const sim::FaultLedger& faults = opts.sweep->faults;
  if (!faults.empty()) {
    std::cout << "=== quarantined faults — " << opts.name << " ===\n"
              << faults.markdown();
    if (!opts.csv_path.empty()) {
      std::filesystem::path p(opts.csv_path);
      p.replace_extension(".faults.csv");
      cli::CsvWriter csv(p.string(),
                         {"trial", "seed", "kind", "phase", "reason"});
      for (const sim::TrialFault& f : faults.sorted_by_trial()) {
        csv.add_row({format_u64(f.trial), format_u64(f.seed),
                     sim::to_string(f.kind), f.phase, f.reason});
      }
      csv.close();
      std::cout << "faults csv: " << p.string() << "\n";
    }
  }

  if (!opts.trace_path.empty()) {
    obs::write_chrome_trace(opts.trace_path, events);
    std::cout << "trace: " << opts.trace_path
              << " (open in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!opts.metrics_path.empty()) {
    obs::write_metrics_json(opts.metrics_path, metrics);
    std::cout << "metrics: " << opts.metrics_path << "\n";
  }
  if (!opts.summary_path.empty()) {
    write_summary_json(opts, wall_ms, phases, metrics);
    std::cout << "summary: " << opts.summary_path << "\n";
  }
  std::cout << "\n";
}

}  // namespace rit::bench
