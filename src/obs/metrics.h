// Metrics registry: named counters, value-stats and quantile reservoirs
// with snapshot-and-merge semantics.
//
// Two usage modes:
//  * the process-global registry (`Registry::global()`), fed from hot paths
//    via the RIT_COUNTER_* macros below (an atomic add after a one-time
//    name lookup cached in a function-local static);
//  * local `Registry` instances, one per worker thread, whose snapshots are
//    merged in thread-index order — the same deterministic-merge discipline
//    the guarded trial engine uses for its Welford accumulators.
//
// Naming convention is `subsystem.metric` (see docs/observability.md), e.g.
// `cra.rounds`, `sim.trials_run`, `attack.sybil_identities`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "stats/online_stats.h"

namespace rit::obs {

/// Monotonic event count. Lock-free; safe to bump from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Welford mean/variance of observed values (e.g. per-trial latencies).
class Stat {
 public:
  void observe(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    s_.add(v);
  }
  void merge_in(const stats::OnlineStats& other) {
    std::lock_guard<std::mutex> lock(mutex_);
    s_.merge(other);
  }
  stats::OnlineStats value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return s_;
  }

 private:
  mutable std::mutex mutex_;
  stats::OnlineStats s_;
};

/// Index-keyed sample reservoir for quantile estimation (p50/p95/p99 in
/// MetricsSnapshot::to_json). Deterministic across thread counts by design: the
/// caller tags each observation with a stable index (e.g. the trial id)
/// and the reservoir keeps exactly the samples with index < capacity.
/// Strided workers observe disjoint index sets, so merging is a plain
/// union and every thread count yields the identical sample set — unlike
/// classic random-replacement reservoirs, whose contents depend on arrival
/// order.
class Reservoir {
 public:
  static constexpr std::uint64_t kDefaultCapacity = 4096;

  explicit Reservoir(std::uint64_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  void observe(std::uint64_t index, double v) {
    if (index >= capacity_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[index] = v;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::map<std::uint64_t, double> samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }
  void merge_in(const std::map<std::uint64_t, double>& other) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [idx, v] : other) {
      if (idx < capacity_) samples_[idx] = v;
    }
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t capacity_;
  std::map<std::uint64_t, double> samples_;
};

/// Point-in-time copy of a registry's contents. Plain data: merge and
/// serialize without touching the live (concurrently-updated) registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, stats::OnlineStats> stats;
  /// Per-reservoir sample sets, keyed by observation index. Because the
  /// indices are caller-assigned and disjoint across strided workers,
  /// merge is a plain union and is thread-count-independent.
  std::map<std::string, std::map<std::uint64_t, double>> reservoirs;

  /// Deterministic accumulate: counters add, stats Welford-merge,
  /// reservoirs union. Merging worker snapshots in thread-index order
  /// yields the same result as a serial run.
  void merge(const MetricsSnapshot& other);

  bool empty() const {
    return counters.empty() && stats.empty() && reservoirs.empty();
  }

  /// Stable JSON rendering (keys sorted — std::map order).
  std::string to_json() const;
};

class Registry {
 public:
  /// Lookup-or-create. References stay valid for the registry's lifetime
  /// (instruments are stored behind unique_ptr).
  Counter& counter(const std::string& name);
  Stat& stat(const std::string& name);
  /// First caller fixes the capacity; later callers must agree.
  Reservoir& reservoir(const std::string& name,
                       std::uint64_t capacity = Reservoir::kDefaultCapacity);

  MetricsSnapshot snapshot() const;
  /// Folds a snapshot into this registry (same semantics as
  /// MetricsSnapshot::merge, applied to the live instruments).
  void absorb(const MetricsSnapshot& s);
  /// Drops every registered instrument.
  void reset();

  static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Stat>> stats_;
  std::map<std::string, std::unique_ptr<Reservoir>> reservoirs_;
};

}  // namespace rit::obs

// Hot-path counter bump against the global registry. The name lookup runs
// once per call site (function-local static); afterwards the cost is a
// relaxed atomic add.
#define RIT_COUNTER_ADD(name, n)                                    \
  do {                                                              \
    static ::rit::obs::Counter& rit_obs_counter =                   \
        ::rit::obs::Registry::global().counter(name);               \
    rit_obs_counter.add(n);                                         \
  } while (false)

#define RIT_COUNTER_INC(name) RIT_COUNTER_ADD(name, 1)
