// Scoped span tracer: RAII spans recorded into per-thread buffers.
//
// Usage in instrumented code:
//
//   void run_phase() {
//     RIT_TRACE_SPAN("cra.phase1");   // begin/end stamped automatically
//     ...
//   }
//
// Span names follow the `subsystem.phase` convention (docs/observability.md)
// and must have static storage duration — the tracer stores the pointer, not
// a copy, so string literals are the intended currency.
//
// Recording is off until `start_tracing()`; an idle span costs one relaxed
// atomic load (measured by BM_TracerIdleSpan in bench_micro).
//
// Threading: each thread appends to its own buffer without locks; the global
// mutex is taken only on thread registration/exit and by collect_trace().
// Collect after worker threads have joined — a buffer still being appended
// to is skipped-at-own-risk (the runner's fan-out joins before collecting).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace rit::obs {

struct TraceEvent {
  const char* name;        ///< static-storage span name, `subsystem.phase`
  std::uint64_t begin_ns;  ///< steady-clock ns relative to process reference
  std::uint64_t end_ns;
  std::uint32_t tid;       ///< small sequential thread index, not the OS id
};

/// True between start_tracing() and stop_tracing().
bool tracing_active();

/// Clears previously recorded events and begins recording.
void start_tracing();

/// Stops recording; events stay available to collect_trace().
void stop_tracing();

/// Drops all recorded events (live and retired buffers).
void clear_trace();

/// Snapshot of every recorded event, sorted by (tid, begin_ns, end_ns desc)
/// so nested spans follow their parent. Call after workers have joined.
std::vector<TraceEvent> collect_trace();

/// Number of spans dropped because a thread buffer hit its capacity.
std::uint64_t dropped_spans();

/// Caps each thread's buffer (default 1<<20 events, ~32 MiB). Spans beyond
/// the cap are dropped and counted, never reallocated-unbounded.
void set_trace_capacity(std::size_t max_events_per_thread);

/// Steady-clock nanoseconds since the process-wide trace epoch.
std::uint64_t trace_now_ns();

namespace detail {
extern std::atomic<bool> g_active;
void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns);

/// Hardware-counter attachment (implemented in obs/perf_counters.cpp).
/// When g_perf_active is set, each traced span additionally samples the
/// calling thread's perf counters at entry/exit; the deltas accumulate
/// into the per-phase table collect_perf_phase_stats() reports. The token
/// is an opaque counter snapshot — six perf values plus the thread's
/// allocation count/bytes at span entry.
extern std::atomic<bool> g_perf_active;
struct PerfSpanToken {
  std::uint64_t v[8];
};
PerfSpanToken perf_span_begin();
void perf_span_end(const char* name, const PerfSpanToken& token);
}  // namespace detail

/// RAII span. Prefer the RIT_TRACE_SPAN macro, which names the variable.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name),
        active_(detail::g_active.load(std::memory_order_relaxed)) {
    if (active_) {
      begin_ns_ = trace_now_ns();
      perf_ = detail::g_perf_active.load(std::memory_order_relaxed);
      if (perf_) token_ = detail::perf_span_begin();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (active_) {
      if (perf_) detail::perf_span_end(name_, token_);
      detail::record_span(name_, begin_ns_, trace_now_ns());
    }
  }

 private:
  const char* name_;
  bool active_;
  bool perf_{false};
  std::uint64_t begin_ns_{0};
  detail::PerfSpanToken token_{};
};

}  // namespace rit::obs

#define RIT_OBS_CONCAT_INNER(a, b) a##b
#define RIT_OBS_CONCAT(a, b) RIT_OBS_CONCAT_INNER(a, b)

#define RIT_TRACE_SPAN(name) \
  ::rit::obs::ScopedSpan RIT_OBS_CONCAT(rit_obs_span_, __LINE__)(name)
