#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/obs.h"
#include "obs/trace_export.h"
#include "stats/histogram.h"
#include "stats/online_stats.h"

namespace rit::obs {
namespace {

// The tracer is process-global state; every test that records restores the
// idle/empty default before returning so tests stay order-independent.
class TracerFixture : public testing::Test {
 protected:
  void TearDown() override {
    stop_tracing();
    clear_trace();
    set_trace_capacity(std::size_t{1} << 20);
  }
};

// Tests below exercise the RIT_TRACE_SPAN / RIT_COUNTER_* macros, which are
// no-ops when the whole build disables observability — obs_off_compile_test
// covers that configuration's (absence of) behavior instead.
#if RIT_OBS_ENABLED

TEST_F(TracerFixture, RecordsNestedAndCrossThreadSpans) {
  start_tracing();
  {
    RIT_TRACE_SPAN("test.outer");
    { RIT_TRACE_SPAN("test.inner"); }
  }
  std::thread worker([] { RIT_TRACE_SPAN("test.worker"); });
  worker.join();
  stop_tracing();

  const std::vector<TraceEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 3u);

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* from_worker = nullptr;
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (name == "test.outer") outer = &e;
    if (name == "test.inner") inner = &e;
    if (name == "test.worker") from_worker = &e;
    EXPECT_LE(e.begin_ns, e.end_ns);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(from_worker, nullptr);

  // The RAII scopes nest, so the recorded intervals must too.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->begin_ns, inner->begin_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_NE(from_worker->tid, outer->tid);
}

TEST_F(TracerFixture, InactiveTracerRecordsNothing) {
  EXPECT_FALSE(tracing_active());
  { RIT_TRACE_SPAN("test.ignored"); }
  EXPECT_TRUE(collect_trace().empty());
}

TEST_F(TracerFixture, CollectOrdersParentsBeforeChildren) {
  start_tracing();
  {
    RIT_TRACE_SPAN("test.parent");
    { RIT_TRACE_SPAN("test.child"); }
  }
  stop_tracing();
  const std::vector<TraceEvent> events = collect_trace();
  ASSERT_EQ(events.size(), 2u);
  // Spans retire child-first (destructor order); collect re-sorts so the
  // enclosing span comes first.
  EXPECT_STREQ(events[0].name, "test.parent");
  EXPECT_STREQ(events[1].name, "test.child");
}

TEST_F(TracerFixture, CapacityCapDropsAndCounts) {
  set_trace_capacity(2);
  start_tracing();
  for (int i = 0; i < 5; ++i) {
    RIT_TRACE_SPAN("test.capped");
  }
  stop_tracing();
  EXPECT_EQ(collect_trace().size(), 2u);
  EXPECT_EQ(dropped_spans(), 3u);
  // start_tracing() begins a fresh recording: drops reset with the events.
  start_tracing();
  stop_tracing();
  EXPECT_EQ(dropped_spans(), 0u);
}

TEST(Metrics, CounterMacroBumpsGlobalRegistry) {
  const std::uint64_t before =
      Registry::global().counter("test.macro_counter").value();
  RIT_COUNTER_INC("test.macro_counter");
  RIT_COUNTER_ADD("test.macro_counter", 4);
  EXPECT_EQ(Registry::global().counter("test.macro_counter").value(),
            before + 5);
}

#endif  // RIT_OBS_ENABLED

std::vector<TraceEvent> golden_events() {
  return {
      {"tree.build", 1'000, 251'000, 0},
      {"cra.phase1", 252'000, 252'500, 0},
      {"payment.extract", 300'250, 301'000, 1},
  };
}

TEST(TraceExport, ChromeTraceJsonMatchesGoldenFile) {
  const std::string path =
      std::string(RITCS_SOURCE_DIR) + "/tests/golden/trace_golden.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(chrome_trace_json(golden_events()), golden.str());
}

TEST(TraceExport, ChromeTraceJsonOfEmptyTraceIsStillValid) {
  const std::string json = chrome_trace_json({});
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

TEST(TraceExport, WriteChromeTraceCreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "ritcs_obs_trace";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "nested" / "trace.json").string();
  write_chrome_trace(path, golden_events());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), chrome_trace_json(golden_events()));
  std::filesystem::remove_all(dir);
}

TEST(TraceExport, PhaseBreakdownComputesSelfTime) {
  // tid 0: trial [0, 1ms] containing phase1 [0.1, 0.4] (with a nested
  // extract [0.15, 0.25]) and phase2 [0.4, 0.6]. tid 1: a bare 0.5ms trial.
  const std::vector<TraceEvent> events = {
      {"cra.phase1", 100'000, 400'000, 0},
      {"rit.extract", 150'000, 250'000, 0},
      {"sim.trial", 0, 1'000'000, 0},
      {"cra.phase2", 400'000, 600'000, 0},
      {"sim.trial", 0, 500'000, 1},
  };
  const std::vector<PhaseStat> phases = phase_breakdown(events);
  ASSERT_EQ(phases.size(), 4u);

  // Sorted by self_ms descending, ties by name.
  EXPECT_EQ(phases[0].name, "sim.trial");
  EXPECT_EQ(phases[0].count, 2u);
  EXPECT_NEAR(phases[0].total_ms, 1.5, 1e-12);
  EXPECT_NEAR(phases[0].self_ms, 1.0, 1e-12);  // 1.0 - 0.3 - 0.2, plus 0.5

  EXPECT_EQ(phases[1].name, "cra.phase1");
  EXPECT_NEAR(phases[1].total_ms, 0.3, 1e-12);
  EXPECT_NEAR(phases[1].self_ms, 0.2, 1e-12);  // minus the nested extract

  EXPECT_EQ(phases[2].name, "cra.phase2");
  EXPECT_NEAR(phases[2].self_ms, 0.2, 1e-12);

  EXPECT_EQ(phases[3].name, "rit.extract");
  EXPECT_NEAR(phases[3].self_ms, 0.1, 1e-12);

  // The invariant the bench tables rely on: self times partition the
  // instrumented wall time exactly.
  double self_sum = 0.0;
  for (const PhaseStat& ph : phases) self_sum += ph.self_ms;
  EXPECT_NEAR(self_sum, 1.5, 1e-12);
}

TEST(TraceExport, PhaseBreakdownClampsChildOutlivingParent) {
  // Clock granularity can make a child appear to end after its parent; self
  // time must clamp at zero instead of going negative.
  const std::vector<TraceEvent> events = {
      {"test.parent", 0, 100, 0},
      {"test.child", 0, 150, 0},
  };
  const std::vector<PhaseStat> phases = phase_breakdown(events);
  ASSERT_EQ(phases.size(), 2u);
  for (const PhaseStat& ph : phases) EXPECT_GE(ph.self_ms, 0.0);
}

TEST(Metrics, SnapshotReflectsEveryInstrumentKind) {
  Registry r;
  r.counter("test.count").add(3);
  r.counter("test.count").add(2);
  r.gauge("test.gauge").set(1.5);
  r.stat("test.stat").observe(2.0);
  r.stat("test.stat").observe(4.0);
  r.histogram("test.histo", 0.0, 10.0, 5).observe(3.0);
  r.histogram("test.histo", 0.0, 10.0, 5).observe(7.0);

  const MetricsSnapshot s = r.snapshot();
  EXPECT_EQ(s.counters.at("test.count"), 5u);
  EXPECT_DOUBLE_EQ(s.gauges.at("test.gauge"), 1.5);
  EXPECT_EQ(s.stats.at("test.stat").count(), 2u);
  EXPECT_DOUBLE_EQ(s.stats.at("test.stat").mean(), 3.0);
  EXPECT_EQ(s.histograms.at("test.histo").count(), 2u);
  EXPECT_EQ(s.histograms.at("test.histo").bucket(1), 1u);  // 3.0
  EXPECT_EQ(s.histograms.at("test.histo").bucket(3), 1u);  // 7.0
}

TEST(Metrics, HistogramShapeIsFixedByFirstRegistration) {
  Registry r;
  r.histogram("test.histo", 0.0, 10.0, 5);
  EXPECT_THROW(r.histogram("test.histo", 0.0, 10.0, 6), CheckFailure);
}

TEST(Metrics, UnsetGaugeDoesNotOverwriteOnMerge) {
  Registry set_one;
  set_one.gauge("test.gauge").set(7.0);
  MetricsSnapshot merged = set_one.snapshot();

  Registry idle;
  idle.gauge("test.gauge");  // registered but never set
  merged.merge(idle.snapshot());
  EXPECT_DOUBLE_EQ(merged.gauges.at("test.gauge"), 7.0);

  Registry overwrite;
  overwrite.gauge("test.gauge").set(9.0);
  merged.merge(overwrite.snapshot());
  EXPECT_DOUBLE_EQ(merged.gauges.at("test.gauge"), 9.0);
}

double trial_value(std::uint64_t t) {
  return std::sin(static_cast<double>(t)) * 10.0 +
         static_cast<double>(t) * 0.1;
}

void feed(Registry& r, std::uint64_t trial) {
  r.counter("sim.trials_run").add(1);
  r.stat("sim.trial_ms").observe(trial_value(trial));
  r.histogram("sim.trial_hist", -10.0, 15.0, 10).observe(trial_value(trial));
}

MetricsSnapshot strided_parallel_merge(std::uint64_t trials,
                                       std::size_t threads,
                                       bool use_real_threads) {
  // The guarded engine's work split: worker w handles trials w, w+T, ...
  // Each worker owns a registry; snapshots merge in worker-index order.
  std::vector<Registry> workers(threads);
  auto work = [&](std::size_t w) {
    for (std::uint64_t t = w; t < trials; t += threads) feed(workers[w], t);
  };
  if (use_real_threads) {
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(work, w);
    for (std::thread& th : pool) th.join();
  } else {
    for (std::size_t w = 0; w < threads; ++w) work(w);
  }
  MetricsSnapshot merged;
  for (const Registry& w : workers) merged.merge(w.snapshot());
  return merged;
}

TEST(Metrics, CrossThreadMergeIsDeterministicAndMatchesSerial) {
  constexpr std::uint64_t kTrials = 40;
  constexpr std::size_t kThreads = 4;

  Registry serial;
  for (std::uint64_t t = 0; t < kTrials; ++t) feed(serial, t);
  const MetricsSnapshot expect = serial.snapshot();

  const MetricsSnapshot a = strided_parallel_merge(kTrials, kThreads, true);
  const MetricsSnapshot b = strided_parallel_merge(kTrials, kThreads, true);
  const MetricsSnapshot c = strided_parallel_merge(kTrials, kThreads, false);

  // Determinism: real threads vs a serial replay of the same per-worker
  // order give bit-identical merged results, run after run.
  EXPECT_EQ(a.stats.at("sim.trial_ms").mean(),
            b.stats.at("sim.trial_ms").mean());
  EXPECT_EQ(a.stats.at("sim.trial_ms").variance(),
            b.stats.at("sim.trial_ms").variance());
  EXPECT_EQ(a.stats.at("sim.trial_ms").mean(),
            c.stats.at("sim.trial_ms").mean());
  EXPECT_EQ(a.stats.at("sim.trial_ms").variance(),
            c.stats.at("sim.trial_ms").variance());

  // Agreement with the fully-serial feed: counters and histogram buckets are
  // exact; Welford moments agree to rounding.
  EXPECT_EQ(a.counters.at("sim.trials_run"),
            expect.counters.at("sim.trials_run"));
  const stats::Histogram& ha = a.histograms.at("sim.trial_hist");
  const stats::Histogram& he = expect.histograms.at("sim.trial_hist");
  ASSERT_EQ(ha.bucket_count(), he.bucket_count());
  for (std::size_t i = 0; i < ha.bucket_count(); ++i) {
    EXPECT_EQ(ha.bucket(i), he.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.stats.at("sim.trial_ms").count(),
            expect.stats.at("sim.trial_ms").count());
  EXPECT_NEAR(a.stats.at("sim.trial_ms").mean(),
              expect.stats.at("sim.trial_ms").mean(), 1e-10);
  EXPECT_NEAR(a.stats.at("sim.trial_ms").variance(),
              expect.stats.at("sim.trial_ms").variance(), 1e-10);
}

TEST(Metrics, AbsorbFoldsSnapshotIntoLiveRegistry) {
  Registry worker;
  feed(worker, 1);
  feed(worker, 2);

  Registry target;
  target.counter("sim.trials_run").add(10);
  target.absorb(worker.snapshot());

  const MetricsSnapshot s = target.snapshot();
  EXPECT_EQ(s.counters.at("sim.trials_run"), 12u);
  EXPECT_EQ(s.stats.at("sim.trial_ms").count(), 2u);
  EXPECT_EQ(s.histograms.at("sim.trial_hist").count(), 2u);
}

TEST(Metrics, ResetDropsEverything) {
  Registry r;
  feed(r, 3);
  r.reset();
  EXPECT_TRUE(r.snapshot().empty());
}

TEST(Metrics, ReservoirKeepsIndexKeyedPrefixAndClampsCapacity) {
  Reservoir r(/*capacity=*/4);
  r.observe(0, 10.0);
  r.observe(3, 13.0);
  r.observe(4, 99.0);   // beyond capacity: dropped, not evicting
  r.observe(100, 1.0);  // far beyond: dropped
  const std::map<std::uint64_t, double> s = r.samples();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.at(0), 10.0);
  EXPECT_DOUBLE_EQ(s.at(3), 13.0);
}

TEST(Metrics, ReservoirMergeIsThreadCountInvariant) {
  // The guarded runner tags each observation with its trial index, so worker
  // reservoirs hold disjoint index sets and the merged sample set — hence
  // the p50/p95/p99 derived from it — is identical for every thread count.
  constexpr std::uint64_t kTrials = 64;
  const auto run_split = [](std::size_t threads) {
    std::vector<Registry> workers(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      for (std::uint64_t t = w; t < kTrials; t += threads) {
        workers[w].reservoir("sim.trial_ms").observe(t, trial_value(t));
      }
    }
    MetricsSnapshot merged;
    for (const Registry& w : workers) merged.merge(w.snapshot());
    return merged.reservoirs.at("sim.trial_ms");
  };
  const auto serial = run_split(1);
  EXPECT_EQ(serial.size(), kTrials);
  EXPECT_EQ(run_split(2), serial);
  EXPECT_EQ(run_split(8), serial);
  EXPECT_EQ(run_split(7), serial);  // non-divisor stride too
}

TEST(Metrics, ReservoirAbsorbFoldsIntoLiveRegistry) {
  Registry worker;
  worker.reservoir("sim.trial_ms").observe(2, 5.0);
  Registry target;
  target.reservoir("sim.trial_ms").observe(1, 4.0);
  target.absorb(worker.snapshot());
  const auto samples = target.snapshot().reservoirs.at("sim.trial_ms");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples.at(1), 4.0);
  EXPECT_DOUBLE_EQ(samples.at(2), 5.0);
}

TEST(Metrics, ToJsonRendersQuantilesFromReservoir) {
  Registry r;
  for (std::uint64_t t = 0; t < 100; ++t) {
    r.reservoir("sim.trial_ms").observe(t, static_cast<double>(t + 1));
  }
  const std::string json = r.snapshot().to_json();
  EXPECT_NE(json.find("\"quantiles\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\": 100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST(Metrics, ToJsonRendersEverySection) {
  Registry r;
  r.counter("test.count").add(2);
  r.gauge("test.gauge").set(0.5);
  r.stat("test.stat").observe(1.0);
  r.histogram("test.histo", 0.0, 1.0, 2).observe(0.25);
  const std::string json = r.snapshot().to_json();
  EXPECT_NE(json.find("\"test.count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.gauge\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.stat\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.histo\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\""), std::string::npos) << json;
}

}  // namespace
}  // namespace rit::obs
