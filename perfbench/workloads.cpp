// The two workloads and the correctness gate.
//
// Every run has two parts. Set-up builds the per-thread mechanism contexts
// from nothing, kSetupReps times, and times each build. The measured loop
// then runs trials (make_instance + run_trial, the timed unit) and, for each
// trial, a direct run_rit_into on the same instance with a warm workspace
// (timed separately as the mechanism) whose result goes through the
// invariant checker outside any timed region.
//
// In trace mode, untraced and traced rounds alternate: untraced rounds
// give the baseline for obs.trace_overhead and record CRA round traces,
// traced rounds record spans and per-span counters.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/parallel.h"
#include "core/payment.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace_export.h"
#include "sim/guarded.h"
#include "sim/workload.h"
#include "testkit/invariants.h"

namespace perfbench {

namespace rc = rit::core;
namespace rs = rit::sim;
namespace ro = rit::obs;

namespace {

constexpr int kSetupReps = 7;
/// Set-up instances are trials kSetupTrial + rep, apart from the measured
/// trials 1, 2, ...
constexpr std::uint64_t kSetupTrial = 1'000'000;
/// Trials per guarded-engine call in the sweep (eight per worker).
constexpr std::uint64_t kSweepBatch = 16;

// min_trials: a trial's cost varies by about +-20% with its random number
// of CRA rounds, so each run takes at least this many trials, even past
// --seconds: 40 on tight_market (about 0.55 s each with verification), one
// round of 5 x 16 trials on the sweep. tight_market's m_i = 66,000 is about
// 79% of the ~84,000 units each type supplies at 80,000 users.
const WorkloadSpec kWorkloads[] = {
    {"tight_market", {80'000}, 66'000, 1, 40},
    {"paper_sweep", {80'000, 70'000, 60'000, 50'000, 40'000}, 5'000, 2,
     5 * kSweepBatch},
};

ro::Counter& counter(const char* name) {
  return ro::Registry::global().counter(name);
}

/// Pins the calling thread, and the workers it starts afterwards, to a
/// window of `width` of the CPUs it may run on, and moves the window by one
/// CPU on each step(). On a shared VM each vCPU's speed drifts on its own,
/// by up to ~25% for tens of seconds; a thread the scheduler leaves on one
/// vCPU measures that vCPU's drift, while rotating spreads the trials of a
/// run evenly over all of them. The destructor restores the original mask.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned width) : width_(width) {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() <= width_) cpus_.clear();  // nothing to rotate over
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }

  void step() {
    if (cpus_.empty()) return;
    cpu_set_t window;
    CPU_ZERO(&window);
    for (unsigned k = 0; k < width_; ++k) {
      CPU_SET(cpus_[(next_ + k) % cpus_.size()], &window);
    }
    next_ = (next_ + 1) % cpus_.size();
    sched_setaffinity(0, sizeof(window), &window);
  }

 private:
  unsigned width_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::size_t next_{0};
};

/// Wall time of one reference unit: sorting the same 131,072 doubles. It
/// calls nothing in the library, so it moves with the host's speed alone.
double reference_unit_s() {
  static const std::vector<double> input = [] {
    std::mt19937_64 rng(0x5eed);
    std::uniform_real_distribution<double> u;
    std::vector<double> v(std::size_t{1} << 17);
    for (double& x : v) x = u(rng);
    return v;
  }();
  thread_local std::vector<double> work;
  work = input;
  const auto t0 = Clock::now();
  std::sort(work.begin(), work.end());
  return seconds_since(t0);
}

/// One worker's mechanism state, reused across trials so the direct run
/// measures a warm workspace.
struct Ctx {
  rc::RitWorkspace ws;
  rc::RitResult result;
  rc::PaymentWorkspace payment_ws;
  std::vector<double> payments;
  std::vector<rit::TaskType> types;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t result_digest(const rc::RitResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, r.allocation.data(),
            r.allocation.size() * sizeof(r.allocation[0]));
  return fnv1a(h, r.payment.data(), r.payment.size() * sizeof(r.payment[0]));
}

/// Round-trace sums of one mechanism result (see RunRecord::sorted_asks).
struct BandSums {
  double sorted_asks{0.0};
  double band_asks{0.0};
};

/// |alpha| of a round is the type's unit supply minus what earlier rounds
/// allocated, i.e. supply - (m_i - q_before).
BandSums band_sums(const rs::TrialInstance& inst, const rc::RitResult& r) {
  std::vector<double> supply(inst.job.num_types(), 0.0);
  for (const rc::Ask& a : inst.population.truthful_asks) {
    supply[a.type.value] += a.quantity;
  }
  BandSums out;
  for (const rc::TypeAuctionInfo& info : r.type_info) {
    const double m_i = info.demanded;
    for (const rc::RoundTrace& round : info.rounds) {
      if (round.consensus_count == 0) continue;  // phase 2 did not run
      const double alpha = supply[info.type.value] - (m_i - round.q_before);
      out.sorted_asks += alpha;
      out.band_asks += std::min(round.q_before + m_i, alpha);
    }
  }
  return out;
}

void add_band_sums(const BandSums& b, RunRecord& rec) {
  rec.sorted_asks += b.sorted_asks;
  rec.band_asks += b.band_asks;
  ++rec.band_runs;
}

/// The direct mechanism run on a warm context: returns its wall time. In
/// trace mode a traced run also calls tree_payments_into directly (the
/// core.payment_s span) and checks it reproduces the mechanism's payments.
double direct_run(const rs::Scenario& s, const rs::TrialInstance& inst,
                  Ctx& ctx, bool round_trace, bool payment_pass,
                  Checker& checker) {
  rc::RitConfig cfg = s.mechanism;
  cfg.record_round_trace = round_trace;
  rit::rng::Rng rng(inst.mechanism_seed);
  const auto t0 = Clock::now();
  {
    ro::ScopedSpan span("bench.run_rit_into");
    rc::run_rit_into(inst.job, inst.population.truthful_asks, inst.tree, cfg,
                     rng, ctx.ws, ctx.result);
  }
  const double elapsed = seconds_since(t0);
  if (payment_pass && ctx.result.success) {
    const auto& asks = inst.population.truthful_asks;
    ctx.types.resize(asks.size());
    for (std::size_t j = 0; j < asks.size(); ++j) ctx.types[j] = asks[j].type;
    {
      ro::ScopedSpan span("bench.tree_payments_into");
      rc::tree_payments_into(inst.tree, ctx.types, ctx.result.auction_payment,
                             cfg.discount_base, cfg.intra_threads,
                             ctx.payment_ws, ctx.payments);
    }
    if (ctx.payments != ctx.result.payment) {
      checker.fail_counted("direct tree_payments_into disagrees with run_rit");
    }
  }
  return elapsed;
}

/// Starts span tracing and per-span counters for one traced round; on
/// destruction stops them and folds the events and counter totals into
/// the record (start_tracing clears earlier events, so each round is
/// collected as it ends).
class TraceSegment {
 public:
  TraceSegment(bool active, RunRecord& rec) : active_(active), rec_(rec) {
    if (!active_) return;
    ro::start_perf_counters();
    ro::start_tracing();
  }
  TraceSegment(const TraceSegment&) = delete;
  TraceSegment& operator=(const TraceSegment&) = delete;
  ~TraceSegment() {
    if (!active_) return;
    ro::stop_tracing();
    ro::stop_perf_counters();
    std::vector<ro::TraceEvent> events = ro::collect_trace();
    rec_.events.insert(rec_.events.end(), events.begin(), events.end());
    const bool instructions =
        ro::perf_availability().counter[ro::kPerfInstructions];
    for (const ro::PerfPhaseStat& p : ro::collect_perf_phase_stats()) {
      PerfTotals& t = rec_.perf[p.name];
      t.count += p.count;
      t.allocs += p.alloc_count;
      if (instructions) t.instructions += p.totals[ro::kPerfInstructions];
    }
  }

 private:
  bool active_;
  RunRecord& rec_;
};

/// User-space instructions retired so far by this process, when the
/// kernel permits perf_event_open; counting is started on first use. Timed
/// runs only: traced rounds restart the counters for their own spans.
std::optional<std::uint64_t> instructions_now(const Options& opts) {
  if (opts.trace) return std::nullopt;
  static const bool supported = [] {
    if (!ro::perf_events_supported()) return false;
    ro::start_perf_counters();
    return ro::perf_availability().counter[ro::kPerfInstructions];
  }();
  if (!supported) return std::nullopt;
  return ro::perf_run_totals().totals[ro::kPerfInstructions];
}

/// Builds `threads` contexts from nothing and warms each with one
/// mechanism run on a set-up instance, kSetupReps times, each time on
/// another instance (generated untimed); each build is one setup_s sample.
/// Returns the last build's contexts.
std::vector<std::unique_ptr<Ctx>> set_up(const rs::Scenario& s,
                                         unsigned threads, CpuRotation& cpus,
                                         RunRecord& rec, Checker& checker) {
  std::vector<std::unique_ptr<Ctx>> ctxs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctxs.clear();
    const rs::TrialInstance inst = rs::make_instance(s, kSetupTrial + rep);
    std::vector<std::unique_ptr<Ctx>> fresh(threads);
    cpus.step();
    const auto t0 = Clock::now();
    rit::parallel_for_strided(threads, threads, [&](std::uint64_t i,
                                                    unsigned) {
      fresh[i] = std::make_unique<Ctx>();
      rit::rng::Rng rng(inst.mechanism_seed);
      rc::run_rit_into(inst.job, inst.population.truthful_asks, inst.tree,
                       s.mechanism, rng, fresh[i]->ws, fresh[i]->result);
    });
    rec.setup_s.push_back(seconds_since(t0));
    for (const auto& ctx : fresh) checker.check(s, inst, ctx->result, nullptr);
    if (rep == 0) rec.digest = result_digest(fresh[0]->result);
    ctxs = std::move(fresh);
  }
  return ctxs;
}

double mean_graph_edges(const std::vector<rs::Scenario>& points) {
  double total = 0.0;
  for (const rs::Scenario& s : points) {
    rit::rng::Rng rng(s.seed);
    total += static_cast<double>(rs::generate_graph(s, rng).num_edges());
  }
  return total / static_cast<double>(points.size());
}

/// tight_market: one trial at a time on the calling thread.
RunRecord run_closed_loop(const WorkloadSpec& spec, const Options& opts,
                          Checker& checker) {
  RunRecord rec;
  const rs::Scenario s =
      make_scenario(spec.users[0], spec.tasks_per_type, opts.seed);
  CpuRotation cpus(1);
  std::vector<std::unique_ptr<Ctx>> ctxs = set_up(s, 1, cpus, rec, checker);
  Ctx& ctx = *ctxs[0];
  if (opts.trace) rec.graph_edges = mean_graph_edges({s});

  ro::Counter& auctions = counter("rit.auctions_run");
  ro::Counter& trials_run = counter("sim.trials_run");
  ro::Counter& cra_rounds = counter("cra.rounds");
  double instructions = 0.0;
  const auto loop_start = Clock::now();
  for (std::uint64_t i = 0; i < spec.min_trials ||
                            seconds_since(loop_start) < opts.seconds;
       ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    cpus.step();
    rec.reference_s.push_back(reference_unit_s());
    TraceSegment segment(traced, rec);
    try {
      const std::uint64_t a0 = auctions.value();
      const std::uint64_t r0 = trials_run.value();
      const std::optional<std::uint64_t> ins0 = instructions_now(opts);
      const auto t0 = Clock::now();
      std::optional<rs::TrialInstance> inst;
      rs::TrialMetrics m;
      {
        ro::ScopedSpan trial("bench.trial");
        {
          ro::ScopedSpan span("bench.make_instance");
          inst.emplace(rs::make_instance(s, i + 1));
        }
        ro::ScopedSpan span("bench.run_trial");
        m = rs::run_trial(s, *inst, ctx.ws);
      }
      const double trial_s = seconds_since(t0);
      if (const auto ins1 = instructions_now(opts); ins0 && ins1) {
        instructions += static_cast<double>(*ins1 - *ins0);
      }
      rec.auctions_run += auctions.value() - a0;
      rec.trials_run += trials_run.value() - r0;
      (traced ? rec.traced_trial_s : rec.trial_s).push_back(trial_s);
      rec.engine_wall_s += trial_s;
      rec.worker_busy_max_s += trial_s;
      rec.worker_busy_mean_s += trial_s;
      ++rec.trials;
      rec.max_depth.push_back(inst->tree.max_depth());

      const std::uint64_t c0 = cra_rounds.value();
      const bool round_trace = opts.trace && !traced;
      rec.mechanism_s.push_back(
          direct_run(s, *inst, ctx, round_trace, traced, checker));
      rec.cra_rounds += cra_rounds.value() - c0;
      ++rec.direct_runs;
      if (round_trace) add_band_sums(band_sums(*inst, ctx.result), rec);
      ro::ScopedSpan span("bench.check");
      checker.check(s, *inst, ctx.result, &m);
    } catch (const std::exception& e) {
      checker.fail(std::string("trial threw: ") + e.what());
    }
  }
  if (instructions > 0.0) {
    rec.trial_instructions = instructions / static_cast<double>(rec.trials);
  }
  return rec;
}

/// What the engine's trial body records about one trial.
struct TrialSlot {
  bool ran{false};
  double trial_s{0.0};
  std::thread::id worker;
  rs::TrialMetrics metrics;
  std::uint32_t max_depth{0};
};

/// paper_sweep: every population point per round, each point one call of
/// the guarded engine on spec.threads workers (make_instance + run_trial
/// per trial), then a verification pass on the same trials.
RunRecord run_sweep(const WorkloadSpec& spec, const Options& opts,
                    Checker& checker) {
  RunRecord rec;
  rec.threads = spec.threads;
  std::vector<rs::Scenario> points;
  for (std::uint32_t users : spec.users) {
    points.push_back(make_scenario(users, spec.tasks_per_type, opts.seed));
  }
  // The largest point first, so set-up warms every context to the size
  // the whole sweep needs.
  CpuRotation cpus(spec.threads);
  std::vector<std::unique_ptr<Ctx>> ctxs =
      set_up(points.front(), spec.threads, cpus, rec, checker);
  if (opts.trace) rec.graph_edges = mean_graph_edges(points);

  ro::Counter& auctions = counter("rit.auctions_run");
  ro::Counter& trials_run = counter("sim.trials_run");
  ro::Counter& cra_rounds = counter("cra.rounds");
  double instructions = 0.0;
  std::uint64_t next_trial = 1;
  const auto loop_start = Clock::now();
  // A traced run needs an untraced and a traced round.
  for (int round = 0; (opts.trace && round < 2) ||
                      next_trial - 1 < spec.min_trials ||
                      seconds_since(loop_start) < opts.seconds;
       ++round) {
    const bool traced = opts.trace && round % 2 == 1;
    const bool round_trace = opts.trace && !traced;
    TraceSegment segment(traced, rec);
    for (const rs::Scenario& s : points) {
      cpus.step();  // the engine's and the verification's workers inherit it
      const std::uint64_t first = next_trial;
      next_trial += kSweepBatch;
      std::vector<TrialSlot> slots(kSweepBatch);
      const rs::TrialBody body = [&](std::uint64_t t, rc::RitWorkspace& ws,
                                     std::string* phase) {
        const auto t0 = Clock::now();
        ro::ScopedSpan trial("bench.trial");
        *phase = "make_instance";
        std::optional<rs::TrialInstance> inst;
        {
          ro::ScopedSpan span("bench.make_instance");
          inst.emplace(rs::make_instance(s, first + t));
        }
        *phase = "run_trial";
        rs::TrialMetrics m;
        {
          ro::ScopedSpan span("bench.run_trial");
          m = rs::run_trial(s, *inst, ws);
        }
        slots[t] = TrialSlot{true, seconds_since(t0),
                             std::this_thread::get_id(), m,
                             inst->tree.max_depth()};
        return m;
      };
      rs::GuardPolicy policy;
      // Contain and count every fault; never abort the batch.
      policy.max_trial_failures = kSweepBatch;

      const std::uint64_t a0 = auctions.value();
      const std::uint64_t r0 = trials_run.value();
      const std::optional<std::uint64_t> ins0 = instructions_now(opts);
      const auto t0 = Clock::now();
      try {
        const rs::GuardedResult g =
            rs::run_trials_guarded(kSweepBatch, spec.threads, policy, body);
        for (std::uint64_t q = 0; q < g.metrics.quarantined_trials; ++q) {
          checker.fail_counted("trial quarantined by the guarded engine");
        }
      } catch (const std::exception& e) {
        checker.fail(std::string("guarded engine threw: ") + e.what());
      }
      const double wall = seconds_since(t0);
      if (const auto ins1 = instructions_now(opts); ins0 && ins1) {
        instructions += static_cast<double>(*ins1 - *ins0);
      }
      rec.engine_wall_s += wall;
      rec.auctions_run += auctions.value() - a0;
      rec.trials_run += trials_run.value() - r0;

      std::unordered_map<std::thread::id, double> busy;
      for (const TrialSlot& slot : slots) {
        if (!slot.ran) continue;
        (traced ? rec.traced_trial_s : rec.trial_s).push_back(slot.trial_s);
        busy[slot.worker] += slot.trial_s;
        rec.max_depth.push_back(slot.max_depth);
        ++rec.trials;
      }
      double busy_max = 0.0;
      double busy_sum = 0.0;
      for (const auto& [worker, b] : busy) {
        busy_max = std::max(busy_max, b);
        busy_sum += b;
      }
      rec.worker_busy_max_s += busy_max;
      rec.worker_busy_mean_s += busy_sum / spec.threads;

      // Verification pass: regenerate each instance and run the mechanism
      // directly on the worker's warm context.
      std::vector<double> mech(kSweepBatch, -1.0);
      std::vector<double> reference(kSweepBatch, -1.0);
      std::vector<BandSums> bands(kSweepBatch);
      const std::uint64_t c0 = cra_rounds.value();
      rit::parallel_for_strided(
          kSweepBatch, spec.threads, [&](std::uint64_t t, unsigned worker) {
            if (!slots[t].ran) {
              checker.fail("trial " + std::to_string(first + t) +
                           " did not complete in the guarded engine");
              return;
            }
            try {
              const rs::TrialInstance inst = rs::make_instance(s, first + t);
              Ctx& ctx = *ctxs[worker];
              reference[t] = reference_unit_s();
              mech[t] = direct_run(s, inst, ctx, round_trace, traced, checker);
              if (round_trace) bands[t] = band_sums(inst, ctx.result);
              ro::ScopedSpan span("bench.check");
              checker.check(s, inst, ctx.result, &slots[t].metrics);
            } catch (const std::exception& e) {
              checker.fail(std::string("verification threw: ") + e.what());
            }
          });
      rec.cra_rounds += cra_rounds.value() - c0;
      for (std::uint64_t t = 0; t < kSweepBatch; ++t) {
        if (mech[t] < 0.0) continue;
        rec.mechanism_s.push_back(mech[t]);
        rec.reference_s.push_back(reference[t]);
        ++rec.direct_runs;
        if (round_trace) add_band_sums(bands[t], rec);
      }
    }
  }
  if (instructions > 0.0) {
    rec.trial_instructions = instructions / static_cast<double>(rec.trials);
  }
  return rec;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

rs::Scenario make_scenario(std::uint32_t users, std::uint32_t tasks_per_type,
                           std::uint64_t seed) {
  rs::Scenario s;
  s.num_users = users;
  s.num_types = 10;
  s.tasks_per_type = tasks_per_type;
  s.demand_lo = 0;
  s.demand_hi = 0;
  s.k_max = 20;
  s.cost_max = 10.0;
  s.mechanism = rs::Scenario::completion_mechanism();
  s.mechanism.h = 0.8;
  s.mechanism.intra_threads = 1;
  s.graph = rs::GraphKind::kBarabasiAlbert;
  s.ba_edges_per_node = 3;
  s.initial_joiners = 10;
  s.intra_threads = 1;
  s.seed = seed;
  return s;
}

void Checker::check(const rs::Scenario& scenario,
                    const rs::TrialInstance& inst,
                    const rc::RitResult& result,
                    const rs::TrialMetrics* trial) {
  attempted_.fetch_add(1);
  rit::testkit::FuzzCase c;
  c.demand = inst.job.demand_vector();
  c.asks = inst.population.truthful_asks;
  c.costs = inst.population.costs;
  const std::vector<std::uint32_t>& parents = inst.tree.parents();
  c.parents.assign(parents.begin() + 1, parents.end());
  c.config = scenario.mechanism;
  c.mech_seed = inst.mechanism_seed;
  const rit::testkit::InvariantReport invariants =
      rit::testkit::check_invariants(c, result);
  std::ostringstream why;
  for (const rit::testkit::InvariantViolation& v : invariants.violations) {
    why << v.name << " (" << v.detail << "); ";
  }
  if (trial != nullptr) {
    std::uint64_t allocated = 0;
    for (std::uint32_t x : result.allocation) allocated += x;
    if (trial->success != result.success ||
        trial->tasks_allocated != allocated) {
      why << "run_trial reported success=" << trial->success << " tasks="
          << trial->tasks_allocated << " but the direct run gave success="
          << result.success << " tasks=" << allocated << "; ";
    }
  }
  if (why.tellp() > 0) {
    failed_.fetch_add(1);
    report("invariant violation: " + why.str());
  }
}

void Checker::fail(const std::string& what) {
  attempted_.fetch_add(1);
  fail_counted(what);
}

void Checker::fail_counted(const std::string& what) {
  failed_.fetch_add(1);
  report(what);
}

void Checker::report(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (printed_++ < 10) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
}

RunRecord run_workload(const WorkloadSpec& spec, const Options& opts,
                       Checker& checker) {
  return spec.threads > 1 ? run_sweep(spec, opts, checker)
                          : run_closed_loop(spec, opts, checker);
}

}  // namespace perfbench
