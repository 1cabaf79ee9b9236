// Repo benchmark. Usage:
//
//   perfbench --workload <tight_market|paper_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for --seconds, checks every mechanism result, prints a
// human-readable report and, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
// Exits 1 when any trial failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// VmHWM of this process in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The reference unit's median time (see RunRecord::reference_s) at the
/// nominal host speed. End-to-end times are reported at that speed: each
/// is scaled by this / the run's median reference unit. On a shared VM the
/// host's speed shifts by up to ~25% for minutes at a time; the program
/// and the reference unit slow down together, so the scaled times spread
/// about half as much between runs as the wall times do.
constexpr double kNominalReferenceS = 0.0125;

std::vector<Metric> end_to_end(const RunRecord& rec,
                               std::vector<Metric>& extra) {
  const double reference = median(rec.reference_s);
  const double speed = ratio(kNominalReferenceS, reference);
  const double trials_per_s =
      ratio(static_cast<double>(rec.trials), rec.engine_wall_s);
  extra.push_back({"reference_s", reference, "s"});
  extra.push_back({"trial_wall_s", median(rec.trial_s), "s"});
  extra.push_back({"mechanism_wall_s", median(rec.mechanism_s), "s"});
  extra.push_back({"trials_per_wall_s", trials_per_s, "1/s"});
  extra.push_back({"setup_wall_s", median(rec.setup_s), "s"});
  if (rec.trial_s.size() >= 200) {
    extra.push_back({"trial_s_p95", quantile(rec.trial_s, 0.95) * speed, "s"});
  }
  if (rec.trial_instructions) {
    extra.push_back({"trial_ginstr", *rec.trial_instructions / 1e9, "1e9"});
  }
  return {
      {"trial_s", median(rec.trial_s) * speed, "s"},
      {"mechanism_s", median(rec.mechanism_s) * speed, "s"},
      {"trials_per_s", ratio(trials_per_s, speed), "1/s"},
      {"setup_s", median(rec.setup_s) * speed, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const RunRecord& rec,
                              std::vector<Metric>& extra) {
  const TraceSummary t = summarize_trace(rec.events);
  const double coverage = print_self_time_table(t);
  extra.push_back({"layer_coverage", coverage, "ratio"});

  const auto in_trial = [&](const char* span) {
    const auto it = t.in_trial.find(span);
    return it == t.in_trial.end() ? SpanStat{} : it->second;
  };
  const auto all = [&](const char* span) {
    const auto it = t.all.find(span);
    return it == t.all.end() ? SpanStat{} : it->second;
  };
  const auto traced_trials = static_cast<double>(in_trial("bench.trial").count);
  const auto auctions = static_cast<double>(all("rit.auction_phase").count);
  const auto per_trial = [&](const char* span) {
    return ratio(in_trial(span).total_s, traced_trials);
  };
  const auto self_per_auction = [&](const char* span) {
    return ratio(all(span).self_s, auctions);
  };
  const auto perf_of = [&](const char* span) {
    const auto it = rec.perf.find(span);
    return it == rec.perf.end() ? PerfTotals{} : it->second;
  };
  double busy = 0.0;
  for (double v : rec.trial_s) busy += v;
  for (double v : rec.traced_trial_s) busy += v;

  const PerfTotals auction_perf = perf_of("rit.auction_phase");
  if (auction_perf.instructions > 0) {
    extra.push_back({"core.auction_ginstr",
                     ratio(static_cast<double>(auction_perf.instructions),
                           static_cast<double>(auction_perf.count)) / 1e9,
                     "1e9"});
  }
  const PerfTotals mech_perf = perf_of("bench.run_rit_into");
  const SpanStat payment = all("bench.tree_payments_into");
  return {
      {"graph.generate_s", per_trial("graph.generate"), "s"},
      {"graph.edges", rec.graph_edges, "count"},
      {"tree.build_s", per_trial("tree.build"), "s"},
      {"tree.max_depth", median(rec.max_depth), "count"},
      {"sim.population_s", per_trial("population.generate"), "s"},
      {"sim.run_trial_s", per_trial("bench.run_trial"), "s"},
      {"sim.auctions_per_trial",
       ratio(static_cast<double>(rec.auctions_run),
             static_cast<double>(rec.trials_run)), "ratio"},
      {"sim.engine_busy_ratio", ratio(busy, rec.threads * rec.engine_wall_s),
       "ratio"},
      {"sim.engine_imbalance",
       ratio(rec.worker_busy_max_s, rec.worker_busy_mean_s), "ratio"},
      {"core.auction_s", ratio(all("rit.auction_phase").total_s, auctions),
       "s"},
      {"core.payment_s",
       ratio(payment.total_s, static_cast<double>(payment.count)), "s"},
      {"core.cra_rounds",
       ratio(static_cast<double>(rec.cra_rounds),
             static_cast<double>(rec.direct_runs)), "count"},
      {"core.cra_sorted_asks",
       ratio(rec.sorted_asks, static_cast<double>(rec.band_runs)), "count"},
      {"core.cra_band_ratio", ratio(rec.band_asks, rec.sorted_asks), "ratio"},
      {"core.extract_self_s", self_per_auction("rit.extract"), "s"},
      {"core.cra_phase1_self_s", self_per_auction("cra.phase1"), "s"},
      {"core.cra_phase2_self_s", self_per_auction("cra.phase2"), "s"},
      {"core.allocs_per_mechanism",
       ratio(static_cast<double>(mech_perf.allocs),
             static_cast<double>(mech_perf.count)), "count"},
      {"obs.trace_overhead",
       ratio(median(rec.traced_trial_s), median(rec.trial_s)) - 1.0, "ratio"},
  };
}

void print_samples(const char* name, const std::vector<double>& v) {
  if (v.empty()) return;
  std::printf("  %-14s n %zu  min %.6g  q1 %.6g  median %.6g  q3 %.6g  "
              "max %.6g\n",
              name, v.size(), quantile(v, 0.0), quantile(v, 0.25),
              quantile(v, 0.5), quantile(v, 0.75), quantile(v, 1.0));
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-26s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

bool parse_options(int argc, char** argv, Options& opts) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (!(opts.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opts.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && have_seed;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  if (!parse_options(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(opts.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }

  std::printf("workload %s seed %llu seconds %g trace %d: users", spec->name,
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  for (std::uint32_t u : spec->users) std::printf(" %u", u);
  std::printf(", m_i %u, threads %u\n", spec->tasks_per_type, spec->threads);
  std::fflush(stdout);

  Checker checker;
  RunRecord rec;
  try {
    rec = run_workload(*spec, opts, checker);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  std::vector<Metric> extra;
  const std::vector<Metric> metrics =
      opts.trace ? per_layer(rec, extra) : end_to_end(rec, extra);
  const std::uint64_t attempted = checker.attempted();
  const std::uint64_t failed = checker.failed();
  extra.push_back({"failed_ratio",
                   ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)), "ratio"});
  extra.push_back({"trials", static_cast<double>(rec.trials), "count"});

  std::printf("digest %s seed %llu: allocation+payment fnv1a %016llx\n",
              spec->name, static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(rec.digest));
  std::printf("samples (s):\n");
  print_samples("setup", rec.setup_s);
  print_samples("trial", rec.trial_s);
  print_samples("traced trial", rec.traced_trial_s);
  print_samples("mechanism", rec.mechanism_s);
  print_samples("reference", rec.reference_s);
  print_metrics(opts.trace ? "per-layer metrics" : "end-to-end metrics",
                metrics);
  print_metrics("also measured", extra);

  bool finite = true;
  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    finite = finite && std::isfinite(metrics[i].value);
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!finite) std::fprintf(stderr, "perfbench: a metric was not finite\n");
  return failed == 0 && attempted > 0 && finite ? 0 : 1;
}
