#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/perf_counters.h"
#include "obs/trace_export.h"
#include "sim/chaos.h"
#include "sim/guarded.h"

namespace rit::obs {
namespace {

// Both the tracer and the perf-counter collector are process-global; every
// test restores the idle defaults so tests stay order-independent.
class PerfFixture : public testing::Test {
 protected:
  void TearDown() override {
    stop_perf_counters();
    stop_tracing();
    clear_trace();
    set_trace_capacity(std::size_t{1} << 20);
  }
};

TEST_F(PerfFixture, CounterNamesAreStable) {
  // Diagnostics label counters by these strings; keep them stable.
  EXPECT_STREQ(perf_counter_name(kPerfCycles), "cycles");
  EXPECT_STREQ(perf_counter_name(kPerfInstructions), "instructions");
  EXPECT_STREQ(perf_counter_name(kPerfCacheRefs), "cache_refs");
  EXPECT_STREQ(perf_counter_name(kPerfCacheMisses), "cache_misses");
  EXPECT_STREQ(perf_counter_name(kPerfBranchMisses), "branch_misses");
  EXPECT_STREQ(perf_counter_name(kPerfTaskClockNs), "task_clock_ns");
}

TEST_F(PerfFixture, StartStopNeverThrowsEvenWhenUnsupported) {
  // Graceful degradation is the acceptance criterion: on kernels that refuse
  // perf_event_open the collector must still arm, collect, and disarm.
  EXPECT_NO_THROW(start_perf_counters());
  EXPECT_TRUE(perf_counters_active());
  EXPECT_NO_THROW(collect_perf_phase_stats());
  EXPECT_NO_THROW(perf_run_totals());
  EXPECT_NO_THROW(stop_perf_counters());
  EXPECT_FALSE(perf_counters_active());
}

TEST_F(PerfFixture, AvailabilityIsConsistentWithSupportProbe) {
  start_perf_counters();
  const PerfAvailability avail = perf_availability();
  stop_perf_counters();
  if (!perf_events_supported()) {
    for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
      EXPECT_FALSE(avail.counter[i]) << perf_counter_name(i);
    }
    EXPECT_FALSE(avail.any_hw());
  }
  // When the kernel does grant events, run totals for granted counters must
  // move under real work; when it does not, they must read as absent (zero).
  start_perf_counters();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i) * 0.5;
  stop_perf_counters();
  const PerfRunTotals totals = perf_run_totals();
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
    // Busy counters (cycles/instructions/task-clock) must tick under real
    // work; sparse ones (cache/branch misses) may legitimately read zero
    // for a tight loop, so only absence is asserted for them.
    const bool busy = i == kPerfCycles || i == kPerfInstructions ||
                      i == kPerfTaskClockNs;
    if (avail.counter[i] && busy) {
      EXPECT_GT(totals.totals[i], 0u) << perf_counter_name(i);
    } else if (!avail.counter[i]) {
      EXPECT_EQ(totals.totals[i], 0u) << perf_counter_name(i);
    }
  }
}

TEST_F(PerfFixture, AllocHookCountsHeapTrafficOnlyWhileArmed) {
  // The bench binaries (and this test) link rit_obs_alloc_hook, so the
  // availability flag must report the hook as linked.
  ASSERT_TRUE(perf_availability().alloc_hook);

  const PerfRunTotals before = perf_run_totals();
  start_perf_counters();
  {
    std::vector<std::string> bulk;
    for (int i = 0; i < 64; ++i) {
      bulk.emplace_back(256, static_cast<char>('a' + (i % 26)));
    }
  }
  stop_perf_counters();
  const PerfRunTotals during = perf_run_totals();
  EXPECT_GT(during.alloc_count, 0u);
  EXPECT_GE(during.alloc_bytes, 64u * 256u);

  // Disarmed allocations must not leak into the frozen totals.
  { std::vector<std::string> idle(32, std::string(128, 'x')); }
  EXPECT_EQ(perf_run_totals().alloc_count, during.alloc_count);
  (void)before;
}

TEST_F(PerfFixture, AllocHookCountsNothrowNew) {
  // The hook replaces the nothrow forms too, so they count like the
  // throwing ones and pair with the hook's delete.
  ASSERT_TRUE(perf_availability().alloc_hook);
  start_perf_counters();
  void* one = ::operator new(512, std::nothrow);
  void* many = ::operator new[](1024, std::nothrow);
  ASSERT_NE(one, nullptr);
  ASSERT_NE(many, nullptr);
  ::operator delete(one, std::nothrow);
  ::operator delete[](many, std::nothrow);
  stop_perf_counters();
  const PerfRunTotals totals = perf_run_totals();
  EXPECT_GE(totals.alloc_count, 2u);
  EXPECT_GE(totals.alloc_bytes, 512u + 1024u);
}

void spin_span([[maybe_unused]] const char* name, int laps) {
  RIT_TRACE_SPAN(name);
  volatile double sink = 0.0;
  for (int i = 0; i < laps; ++i) sink = sink + static_cast<double>(i);
}

// The instrumentation's own allocations (a span's first table entry on a
// thread, the trace buffer growing) are not the measured code's: a fresh
// thread's first spans must charge none of them to the span around them.
TEST_F(PerfFixture, BookkeepingAllocationsChargeNoSpan) {
  ASSERT_TRUE(perf_availability().alloc_hook);
  start_perf_counters();
  start_tracing();
  std::thread worker([] {
    RIT_TRACE_SPAN("bookkeeping.outer");
    spin_span("bookkeeping.a", 10);
    spin_span("bookkeeping.b", 10);
    spin_span("bookkeeping.c", 10);
  });
  worker.join();
  stop_tracing();
  stop_perf_counters();
  int seen = 0;
  for (const PerfPhaseStat& p : collect_perf_phase_stats()) {
    if (p.name.rfind("bookkeeping.", 0) != 0) continue;
    ++seen;
    EXPECT_EQ(p.alloc_count, 0u) << p.name;
  }
  EXPECT_EQ(seen, 4);
}

// S3: multithreaded span collection. The container may expose a single core,
// so the worker counts are explicit std::thread spawns, not hardware-derived.
class PerfThreadsTest : public PerfFixture,
                        public testing::WithParamInterface<std::size_t> {};

TEST_P(PerfThreadsTest, CollectTraceSeesEverySpanAcrossThreads) {
  const std::size_t threads = GetParam();
  constexpr std::size_t kSpansPerThread = 5;
  start_tracing();
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([] {
      for (std::size_t s = 0; s < kSpansPerThread; ++s) {
        spin_span("perf.outer", 200);
        { RIT_TRACE_SPAN("perf.inner"); }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  stop_tracing();

  const std::vector<TraceEvent> events = collect_trace();
  ASSERT_EQ(events.size(), threads * kSpansPerThread * 2);

  // Phase-summary aggregation must fold the per-thread buffers into one
  // entry per phase with exact span counts, independent of thread count.
  const std::vector<PhaseStat> phases = phase_breakdown(events);
  std::map<std::string, std::uint64_t> counts;
  for (const PhaseStat& ph : phases) counts[ph.name] = ph.count;
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at("perf.outer"), threads * kSpansPerThread);
  EXPECT_EQ(counts.at("perf.inner"), threads * kSpansPerThread);
}

TEST_P(PerfThreadsTest, PhaseCountersAggregateAcrossThreads) {
  const std::size_t threads = GetParam();
  constexpr std::size_t kSpansPerThread = 4;
  // Phase attribution rides the tracer's ScopedSpan, so both recorders
  // must be armed — exactly what bench_support does under --perf-counters.
  start_tracing();
  start_perf_counters();
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([] {
      for (std::size_t s = 0; s < kSpansPerThread; ++s) {
        spin_span("perf.phase_counted", 500);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  stop_perf_counters();
  // Which counters the kernel granted is only known after arming — read
  // the availability the armed run actually had.
  const PerfAvailability avail = perf_availability();

  const std::vector<PerfPhaseStat> phases = collect_perf_phase_stats();
  const PerfPhaseStat* counted = nullptr;
  for (const PerfPhaseStat& ph : phases) {
    if (ph.name == "perf.phase_counted") counted = &ph;
  }
  ASSERT_NE(counted, nullptr);
  EXPECT_EQ(counted->count, threads * kSpansPerThread);
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
    const bool busy = i == kPerfCycles || i == kPerfInstructions ||
                      i == kPerfTaskClockNs;
    if (avail.counter[i] && busy) {
      EXPECT_GT(counted->totals[i], 0u) << perf_counter_name(i);
    } else if (!avail.counter[i]) {
      EXPECT_EQ(counted->totals[i], 0u) << perf_counter_name(i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PerfThreadsTest,
                         testing::Values(std::size_t{2}, std::size_t{8}));

// S1: injected faults must surface as per-kind counters in the global
// metrics registry so the bench summary JSON carries the fault ledger.
TEST_F(PerfFixture, FaultKindsSurfaceAsGlobalCounters) {
  const std::uint64_t exc_before =
      Registry::global().counter("sim.faults_exception").value();
  const std::uint64_t nan_before =
      Registry::global().counter("sim.faults_nonfinite").value();

  sim::GuardPolicy policy;
  policy.max_trial_failures = 8;
  policy.chaos.throw_on_trial = 1;
  policy.chaos.nan_on_trial = 3;
  const sim::GuardedResult res = sim::run_trials_guarded(
      6, 2, policy,
      [](std::uint64_t, core::RitWorkspace&, std::string*) {
        sim::TrialMetrics m;
        m.success = true;
        m.avg_utility_rit = 1.0;
        return m;
      });
  EXPECT_EQ(res.faults.size(), 2u);
  EXPECT_EQ(res.metrics.failed_trials, 1u);
  EXPECT_EQ(res.metrics.quarantined_trials, 1u);

  EXPECT_EQ(Registry::global().counter("sim.faults_exception").value(),
            exc_before + 1);
  EXPECT_EQ(Registry::global().counter("sim.faults_nonfinite").value(),
            nan_before + 1);
}

}  // namespace
}  // namespace rit::obs
