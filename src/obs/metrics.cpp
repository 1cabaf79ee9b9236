#include "obs/metrics.h"

#include <vector>

#include "common/check.h"
#include "common/format_util.h"
#include "common/num_io.h"
#include "stats/percentile.h"

namespace rit::obs {

namespace {

std::string json_number(double v) { return rit::format_double_g17(v); }

}  // namespace

// Field-coverage guard for merge(): MetricsSnapshot must stay exactly three
// maps (counters, stats, reservoirs). A fourth family
// added without extending merge() would be silently dropped from
// worker-snapshot folds — this fires and points here instead.
static_assert(sizeof(MetricsSnapshot) ==
                  3 * sizeof(std::map<std::string, double>),
              "MetricsSnapshot changed shape: update merge() and to_json() "
              "in metrics.cpp (and this static_assert) so no field is "
              "dropped from worker-snapshot folds");

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, s] : other.stats) {
    auto [it, inserted] = stats.try_emplace(name, s);
    if (!inserted) it->second.merge(s);
  }
  for (const auto& [name, samples] : other.reservoirs) {
    auto& mine = reservoirs[name];
    for (const auto& [idx, v] : samples) mine[idx] = v;
  }
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"stats\": {";
  first = true;
  for (const auto& [name, s] : stats) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(s.count()) + ", \"mean\": " + json_number(s.mean()) +
           ", \"stddev\": " + json_number(s.stddev()) +
           ", \"min\": " + json_number(s.min()) +
           ", \"max\": " + json_number(s.max()) + "}";
  }
  out += first ? "},\n" : "\n  },\n";

  // Reservoir sample sets render as their headline quantiles, not the raw
  // samples — the ledger and dashboards want p50/p95/p99, and the captured
  // index-keyed set is identical for every thread count so the quantiles
  // are too.
  out += "  \"quantiles\": {";
  first = true;
  for (const auto& [name, samples] : reservoirs) {
    if (samples.empty()) continue;
    std::vector<double> values;
    values.reserve(samples.size());
    for (const auto& [idx, v] : samples) values.push_back(v);
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) +
           "\": {\"samples\": " + std::to_string(values.size()) +
           ", \"p50\": " + json_number(stats::quantile(values, 0.50)) +
           ", \"p95\": " + json_number(stats::quantile(values, 0.95)) +
           ", \"p99\": " + json_number(stats::quantile(values, 0.99)) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Stat& Registry::stat(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = stats_[name];
  if (!slot) slot = std::make_unique<Stat>();
  return *slot;
}

Reservoir& Registry::reservoir(const std::string& name,
                               std::uint64_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = reservoirs_[name];
  if (!slot) {
    slot = std::make_unique<Reservoir>(capacity);
  } else {
    RIT_CHECK_MSG(slot->capacity() == capacity,
                  "reservoir '" << name << "' re-registered with a different "
                                << "capacity");
  }
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, st] : stats_) s.stats[name] = st->value();
  for (const auto& [name, r] : reservoirs_) s.reservoirs[name] = r->samples();
  return s;
}

void Registry::absorb(const MetricsSnapshot& s) {
  for (const auto& [name, v] : s.counters) counter(name).add(v);
  for (const auto& [name, st] : s.stats) stat(name).merge_in(st);
  // Snapshots carry only samples, not the origin capacity; absorbing into
  // a not-yet-registered name uses the default (every in-tree producer
  // registers at the default, so the capacities agree in practice).
  for (const auto& [name, samples] : s.reservoirs) {
    reservoir(name).merge_in(samples);
  }
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  stats_.clear();
  reservoirs_.clear();
}

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlive all users
  return *instance;
}

}  // namespace rit::obs
