// Self times from span nesting, and the per-layer table of a traced run.
#include <algorithm>
#include <cstdio>
#include <tuple>

#include "bench.h"

namespace perfbench {
namespace {

/// The module a span belongs to ("graph", "tree", "sim", "core", or
/// "bench" for the benchmark's own spans).
std::string layer_of(const std::string& span) {
  const std::string prefix = span.substr(0, span.find('.'));
  if (prefix == "rit" || prefix == "cra" || prefix == "payment") return "core";
  if (prefix == "population" || prefix == "job") return "sim";
  return prefix;
}

}  // namespace

TraceSummary summarize_trace(const std::vector<rit::obs::TraceEvent>& in) {
  // Spans are RAII-scoped, so on one thread they nest strictly: sorted by
  // (begin, longer first), each span's parent is the innermost open span
  // that contains it.
  std::vector<rit::obs::TraceEvent> events = in;
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return std::tie(a.tid, a.begin_ns, b.end_ns) <
           std::tie(b.tid, b.begin_ns, a.end_ns);
  });
  std::vector<double> child_s(events.size(), 0.0);
  std::vector<std::size_t> root(events.size(), 0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    while (!open.empty() && (events[open.back()].tid != e.tid ||
                             events[open.back()].end_ns <= e.begin_ns)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_s[open.back()] += static_cast<double>(e.end_ns - e.begin_ns) * 1e-9;
    }
    root[i] = open.empty() ? i : root[open.front()];
    open.push_back(i);
  }

  TraceSummary out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& e = events[i];
    const double total = static_cast<double>(e.end_ns - e.begin_ns) * 1e-9;
    const double self = std::max(0.0, total - child_s[i]);
    const auto add = [&](std::map<std::string, SpanStat>& table) {
      SpanStat& s = table[e.name];
      ++s.count;
      s.total_s += total;
      s.self_s += self;
    };
    add(out.all);
    if (std::string(events[root[i]].name) == "bench.trial") add(out.in_trial);
    if (std::string(e.name) == "bench.trial") out.trial_total_s += total;
  }
  return out;
}

double print_self_time_table(const TraceSummary& summary) {
  struct Row {
    std::string layer;
    std::string span;
    SpanStat stat;
  };
  std::vector<Row> rows;
  for (const auto& [name, stat] : summary.in_trial) {
    rows.push_back({layer_of(name), name, stat});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.layer, b.stat.self_s) < std::tie(b.layer, a.stat.self_s);
  });
  const double total = summary.trial_total_s;
  std::printf("self time per layer inside traced trials (%.3f s traced):\n",
              total);
  std::printf("  %-6s %-22s %7s %12s %12s %7s\n", "layer", "span", "count",
              "total_ms", "self_ms", "self%");
  std::map<std::string, double> layer_self;
  double covered = 0.0;
  for (const Row& r : rows) {
    std::printf("  %-6s %-22s %7llu %12.3f %12.3f %6.2f%%\n", r.layer.c_str(),
                r.span.c_str(), static_cast<unsigned long long>(r.stat.count),
                r.stat.total_s * 1e3, r.stat.self_s * 1e3,
                total > 0 ? 100.0 * r.stat.self_s / total : 0.0);
    layer_self[r.layer] += r.stat.self_s;
    if (r.layer != "bench") covered += r.stat.self_s;
  }
  for (const auto& [layer, self] : layer_self) {
    std::printf("  layer %-6s self %10.3f ms  %6.2f%%\n", layer.c_str(),
                self * 1e3, total > 0 ? 100.0 * self / total : 0.0);
  }
  const double coverage = total > 0 ? covered / total : 0.0;
  std::printf("library spans cover %.2f%% of traced trial time\n",
              100.0 * coverage);
  return coverage;
}

}  // namespace perfbench
