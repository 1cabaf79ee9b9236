#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "obs/perf_counters.h"

namespace rit::obs {

namespace detail {
std::atomic<bool> g_active{false};
}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::size_t> g_capacity{std::size_t{1} << 20};
std::atomic<std::uint32_t> g_next_tid{0};

struct ThreadBuffer;

// Registration of live thread buffers plus events from exited threads.
// Guarded by g_registry_mutex; the hot path (record_span) never takes it.
std::mutex g_registry_mutex;
std::vector<ThreadBuffer*>& live_buffers() {
  static std::vector<ThreadBuffer*> v;
  return v;
}
std::vector<TraceEvent>& retired_events() {
  static std::vector<TraceEvent> v;
  return v;
}

struct ThreadBuffer {
  std::vector<TraceEvent> events;
  std::uint32_t tid;

  ThreadBuffer() : tid(g_next_tid.fetch_add(1, std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    live_buffers().push_back(this);
  }

  ~ThreadBuffer() {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto& live = live_buffers();
    live.erase(std::remove(live.begin(), live.end(), this), live.end());
    auto& retired = retired_events();
    retired.insert(retired.end(), events.begin(), events.end());
  }
};

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

}  // namespace

bool tracing_active() {
  return detail::g_active.load(std::memory_order_relaxed);
}

void start_tracing() {
  clear_trace();
  detail::g_active.store(true, std::memory_order_relaxed);
}

void stop_tracing() {
  detail::g_active.store(false, std::memory_order_relaxed);
}

void clear_trace() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (ThreadBuffer* b : live_buffers()) b->events.clear();
  retired_events().clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::vector<TraceEvent> collect_trace() {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    out = retired_events();
    for (const ThreadBuffer* b : live_buffers()) {
      out.insert(out.end(), b->events.begin(), b->events.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              return a.end_ns > b.end_ns;  // parents before children
            });
  return out;
}

std::uint64_t dropped_spans() {
  return g_dropped.load(std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t max_events_per_thread) {
  g_capacity.store(std::max<std::size_t>(max_events_per_thread, 1),
                   std::memory_order_relaxed);
}

std::uint64_t trace_now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

namespace detail {

void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns) {
  const UncountedAllocs bookkeeping;  // the buffer's growth
  ThreadBuffer& buf = local_buffer();
  if (buf.events.size() >= g_capacity.load(std::memory_order_relaxed)) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(TraceEvent{name, begin_ns, end_ns, buf.tid});
}

}  // namespace detail

}  // namespace rit::obs
