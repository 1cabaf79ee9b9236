#include "obs/perf_counters.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>

#include "obs/trace.h"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace rit::obs {

namespace detail {
std::atomic<bool> g_perf_active{false};
}  // namespace detail

namespace {

const char* const kCounterNames[kPerfNumCounters] = {
    "cycles",        "instructions",  "cache_refs",
    "cache_misses",  "branch_misses", "task_clock_ns",
};

std::atomic<bool> g_alloc_hook_linked{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

// Thread-local allocation counters feed the per-span deltas without any
// cross-thread traffic; the global atomics above feed the run totals.
// Plain trivially-initialized thread_locals: note_alloc can run during
// thread startup, before any dynamic TLS constructor would have run.
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;
thread_local bool t_alloc_uncounted = false;  // see UncountedAllocs

#ifdef __linux__

struct CounterConfig {
  std::uint32_t type;
  std::uint64_t config;
};

const CounterConfig kConfigs[kPerfNumCounters] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

// User-space-only events maximize availability under perf_event_paranoid
// (level 2, the common container default where it is permitted at all,
// still allows self-monitoring without kernel samples).
int open_counter(std::size_t id, bool inherit) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = kConfigs[id].type;
  attr.config = kConfigs[id].config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = inherit ? 1 : 0;
  const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1,
                          /*group_fd=*/-1, /*flags=*/0UL);
  return static_cast<int>(fd);
}

std::uint64_t read_counter(int fd) {
  std::uint64_t value = 0;
  for (;;) {
    const ssize_t n = read(fd, &value, sizeof(value));
    if (n == static_cast<ssize_t>(sizeof(value))) return value;
    if (n < 0 && errno == EINTR) continue;
    return 0;  // short read / error: treat as no data, never fail the run
  }
}

#endif  // __linux__

struct PhaseAccum {
  std::uint64_t count{0};
  std::array<std::uint64_t, kPerfNumCounters> totals{};
  std::uint64_t alloc_count{0};
  std::uint64_t alloc_bytes{0};

  void merge(const PhaseAccum& other) {
    count += other.count;
    for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
      totals[i] += other.totals[i];
    }
    alloc_count += other.alloc_count;
    alloc_bytes += other.alloc_bytes;
  }
};

// Field-coverage guard for merge(): count + six counters + two alloc
// fields. A new field added without extending merge() would silently drop
// from the retired-phase fold — this fires and points here instead.
static_assert(sizeof(PhaseAccum) ==
                  (3 + kPerfNumCounters) * sizeof(std::uint64_t),
              "PhaseAccum changed shape: update merge() so no field is "
              "dropped from per-thread phase folds");

struct ThreadPerf;

// Registry of live per-thread profiling state plus totals folded in from
// exited threads — the same live/retired split the span tracer uses.
std::mutex g_perf_mutex;
std::vector<ThreadPerf*>& live_perf() {
  static std::vector<ThreadPerf*> v;
  return v;
}
std::map<std::string, PhaseAccum>& retired_phases() {
  static std::map<std::string, PhaseAccum> m;
  return m;
}

// Run-level (inherited) counter set, owned by whichever thread called
// start_perf_counters(). Guarded by g_perf_mutex.
struct RunSet {
  std::array<int, kPerfNumCounters> fd;
  std::array<bool, kPerfNumCounters> available{};
  PerfRunTotals frozen;
  bool frozen_valid{false};
  std::uint64_t alloc_count_at_start{0};
  std::uint64_t alloc_bytes_at_start{0};
  RunSet() { fd.fill(-1); }
};
RunSet& run_set() {
  static RunSet* s = new RunSet();  // leaked: outlives all users
  return *s;
}

struct ThreadPerf {
  std::array<int, kPerfNumCounters> fd;
  bool opened{false};
  // Keyed by the span's static name pointer on the hot path; folded into
  // the by-name retired map when the thread exits or collect runs.
  std::map<const char*, PhaseAccum> phases;

  ThreadPerf() {
    fd.fill(-1);
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    live_perf().push_back(this);
  }

  ~ThreadPerf() {
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    auto& live = live_perf();
    live.erase(std::remove(live.begin(), live.end(), this), live.end());
    for (const auto& [name, accum] : phases) {
      retired_phases()[name].merge(accum);
    }
    close_fds();
  }

  void open_fds() {
    if (opened) return;
    opened = true;
#ifdef __linux__
    for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
      fd[i] = open_counter(i, /*inherit=*/false);
    }
#endif
  }

  void close_fds() {
#ifdef __linux__
    for (int& f : fd) {
      if (f >= 0) close(f);
      f = -1;
    }
#endif
    opened = false;
  }
};

ThreadPerf& thread_perf() {
  thread_local ThreadPerf tp;
  return tp;
}

void read_all(ThreadPerf& tp, std::uint64_t out[kPerfNumCounters]) {
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
#ifdef __linux__
    out[i] = tp.fd[i] >= 0 ? read_counter(tp.fd[i]) : 0;
#else
    (void)tp;
    out[i] = 0;
#endif
  }
}

}  // namespace

const char* perf_counter_name(std::size_t id) {
  return id < kPerfNumCounters ? kCounterNames[id] : "unknown";
}

PerfAvailability perf_availability() {
  PerfAvailability a;
  a.alloc_hook = g_alloc_hook_linked.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  a.counter = run_set().available;
  return a;
}

bool perf_events_supported() {
#ifdef __linux__
  const int fd = open_counter(kPerfTaskClockNs, /*inherit=*/false);
  if (fd < 0) return false;
  close(fd);
  return true;
#else
  return false;
#endif
}

void start_perf_counters() {
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  RunSet& rs = run_set();
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
#ifdef __linux__
    if (rs.fd[i] < 0) rs.fd[i] = open_counter(i, /*inherit=*/true);
    rs.available[i] = rs.fd[i] >= 0;
    if (rs.fd[i] >= 0) {
      ioctl(rs.fd[i], PERF_EVENT_IOC_RESET, 0);
    }
#else
    rs.available[i] = false;
#endif
  }
  rs.frozen_valid = false;
  rs.alloc_count_at_start = g_alloc_count.load(std::memory_order_relaxed);
  rs.alloc_bytes_at_start = g_alloc_bytes.load(std::memory_order_relaxed);
  for (ThreadPerf* tp : live_perf()) tp->phases.clear();
  retired_phases().clear();
  detail::g_perf_active.store(true, std::memory_order_relaxed);
}

namespace {

PerfRunTotals read_run_totals_locked() {
  RunSet& rs = run_set();
  if (rs.frozen_valid) return rs.frozen;
  PerfRunTotals t;
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
#ifdef __linux__
    t.totals[i] = rs.fd[i] >= 0 ? read_counter(rs.fd[i]) : 0;
#endif
  }
  t.alloc_count = g_alloc_count.load(std::memory_order_relaxed) -
                  rs.alloc_count_at_start;
  t.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) -
                  rs.alloc_bytes_at_start;
  return t;
}

}  // namespace

void stop_perf_counters() {
  detail::g_perf_active.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  RunSet& rs = run_set();
  rs.frozen = read_run_totals_locked();
  rs.frozen_valid = true;
}

bool perf_counters_active() {
  return detail::g_perf_active.load(std::memory_order_relaxed);
}

std::vector<PerfPhaseStat> collect_perf_phase_stats() {
  std::map<std::string, PhaseAccum> merged;
  {
    std::lock_guard<std::mutex> lock(g_perf_mutex);
    merged = retired_phases();
    for (const ThreadPerf* tp : live_perf()) {
      for (const auto& [name, accum] : tp->phases) {
        merged[name].merge(accum);
      }
    }
  }
  std::vector<PerfPhaseStat> out;
  out.reserve(merged.size());
  for (const auto& [name, accum] : merged) {
    PerfPhaseStat s;
    s.name = name;
    s.count = accum.count;
    s.totals = accum.totals;
    s.alloc_count = accum.alloc_count;
    s.alloc_bytes = accum.alloc_bytes;
    out.push_back(std::move(s));
  }
  return out;
}

PerfRunTotals perf_run_totals() {
  std::lock_guard<std::mutex> lock(g_perf_mutex);
  return read_run_totals_locked();
}

namespace detail {

PerfSpanToken perf_span_begin() {
  ThreadPerf& tp = thread_perf();
  tp.open_fds();
  PerfSpanToken t{};
  read_all(tp, t.v);
  t.v[6] = t_alloc_count;
  t.v[7] = t_alloc_bytes;
  return t;
}

void perf_span_end(const char* name, const PerfSpanToken& token) {
  ThreadPerf& tp = thread_perf();
  std::uint64_t now[kPerfNumCounters];
  read_all(tp, now);
  PhaseAccum& accum = [&]() -> PhaseAccum& {
    const UncountedAllocs first_entry;
    return tp.phases[name];
  }();
  ++accum.count;
  for (std::size_t i = 0; i < kPerfNumCounters; ++i) {
    // Counters are monotone per fd; the guard protects against a counter
    // that opened mid-span (reads 0 at begin, huge at end would be wrong
    // only if begin read failed — in that case both reads are 0).
    if (now[i] > token.v[i]) accum.totals[i] += now[i] - token.v[i];
  }
  if (t_alloc_count > token.v[6]) accum.alloc_count += t_alloc_count - token.v[6];
  if (t_alloc_bytes > token.v[7]) accum.alloc_bytes += t_alloc_bytes - token.v[7];
}

void note_alloc(std::size_t bytes) noexcept {
  if (!g_perf_active.load(std::memory_order_relaxed)) return;
  if (t_alloc_uncounted) return;
  t_alloc_count += 1;
  t_alloc_bytes += bytes;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void mark_alloc_hook_linked() noexcept {
  g_alloc_hook_linked.store(true, std::memory_order_relaxed);
}

UncountedAllocs::UncountedAllocs() noexcept : was_(t_alloc_uncounted) {
  t_alloc_uncounted = true;
}

UncountedAllocs::~UncountedAllocs() { t_alloc_uncounted = was_; }

}  // namespace detail

}  // namespace rit::obs
