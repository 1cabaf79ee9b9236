#include "sim/guarded.h"

#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "stats/timer.h"

namespace rit::sim {

namespace {

// Quarantine predicate: every double the aggregates fold must be finite,
// or one poisoned trial turns the whole sweep's Welford state into NaN.
bool all_finite(const TrialMetrics& m) {
  return std::isfinite(m.avg_utility_auction) &&
         std::isfinite(m.avg_utility_rit) &&
         std::isfinite(m.total_payment_auction) &&
         std::isfinite(m.total_payment_rit) &&
         std::isfinite(m.runtime_auction_ms) &&
         std::isfinite(m.runtime_rit_ms) &&
         std::isfinite(m.solicitation_premium);
}

struct WorkerState {
  AggregateMetrics agg;
  FaultLedger faults;
  obs::Registry metrics;
  core::RitWorkspace ws;
};

}  // namespace

GuardedResult run_trials_guarded(std::uint64_t trials, unsigned threads,
                                 const GuardPolicy& policy,
                                 const TrialBody& body,
                                 const TrialSeedFn& seed_of,
                                 CheckpointSession* session,
                                 std::uint64_t point,
                                 const ProgressFn& progress) {
  const unsigned resolved = rit::resolve_threads(threads, trials);
  if (session != nullptr) {
    // The strided partition (and so every worker's resumable state) is a
    // function of the resolved thread count; the session's binding was
    // validated against the file, this validates the runner against the
    // session.
    RIT_CHECK_MSG(session->params().threads == resolved,
                  "checkpoint session bound to "
                      << session->params().threads << " thread(s), run has "
                      << resolved);
    RIT_CHECK_MSG(session->params().trials == trials,
                  "checkpoint session bound to " << session->params().trials
                                                 << " trial(s), run has "
                                                 << trials);
    GuardedResult done;
    if (session->completed_point(point, &done)) return done;
  }

  std::vector<WorkerState> workers(resolved);
  std::uint64_t start = 0;
  if (session != nullptr) {
    std::uint64_t cursor = 0;
    std::vector<WorkerCheckpoint> saved;
    if (session->partial_state(point, &cursor, &saved)) {
      RIT_CHECK_MSG(saved.size() == resolved,
                    "checkpoint partial state has " << saved.size()
                                                    << " worker(s), run has "
                                                    << resolved);
      RIT_CHECK_MSG(cursor <= trials, "checkpoint cursor " << cursor
                                                           << " beyond "
                                                           << trials
                                                           << " trials");
      for (unsigned w = 0; w < resolved; ++w) {
        workers[w].agg = saved[w].agg;
        workers[w].faults = saved[w].faults;
      }
      start = cursor;
      RIT_COUNTER_ADD("sim.trials_resumed", start);
    }
  }

  std::uint64_t restored_faults = 0;
  for (const WorkerState& w : workers) restored_faults += w.faults.size();
  std::atomic<std::uint64_t> fault_count{restored_faults};
  std::atomic<bool> aborting{false};
  std::mutex abort_mu;
  std::exception_ptr abort_error;
  std::string abort_reason;

  const auto note_fault = [&](WorkerState& w, std::uint64_t t, FaultKind kind,
                              const std::string& phase, std::string reason) {
    const std::uint64_t seed = seed_of ? seed_of(t) : t;
    w.faults.record(t, seed, kind, phase, reason);
    if (kind == FaultKind::kNonFinite) {
      w.agg.note_quarantined();
      RIT_COUNTER_INC("sim.trials_quarantined");
    } else {
      w.agg.note_failed();
      RIT_COUNTER_INC("sim.trials_failed");
    }
    // Per-kind breakdown so the metrics snapshot carries the FaultLedger story
    // (quarantines vs watchdog overruns vs throws), not only .faults.csv.
    switch (kind) {
      case FaultKind::kException:
        RIT_COUNTER_INC("sim.faults_exception");
        break;
      case FaultKind::kTimeout:
        RIT_COUNTER_INC("sim.faults_timeout");
        break;
      case FaultKind::kNonFinite:
        RIT_COUNTER_INC("sim.faults_nonfinite");
        break;
      case FaultKind::kWorkerDeath:
        // Worker deaths are recorded by the supervisor (src/platform/),
        // never by the in-process containment path; the case exists so the
        // switch stays exhaustive.
        RIT_COUNTER_INC("sim.faults_worker_death");
        break;
    }
    const std::uint64_t count =
        fault_count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (count > policy.max_trial_failures) {
      std::lock_guard<std::mutex> lock(abort_mu);
      if (!abort_error) {
        std::ostringstream os;
        os << "trial " << t << " (seed " << seed << ", " << phase << ") "
           << to_string(kind) << ": " << reason
           << " — failure budget exhausted (" << count << " fault(s) > "
              "--max-trial-failures=" << policy.max_trial_failures << ")";
        abort_reason = os.str();
        abort_error = std::make_exception_ptr(rit::CheckFailure(abort_reason));
      }
      aborting.store(true, std::memory_order_relaxed);
    }
  };

  const auto run_one = [&](WorkerState& w, std::uint64_t t) {
    std::string phase = "trial";
    stats::Timer watchdog;
    TrialMetrics m;
    bool ok = true;
    try {
      chaos::inject_before_trial(policy.chaos, t);
      stats::Timer trial_timer;
      m = body(t, w.ws, &phase);
      const double ms = trial_timer.elapsed_ms();
      w.metrics.stat("sim.trial_ms").observe(ms);
      // Index-keyed sample: trial t always lands in slot t regardless of
      // which worker ran it, so the captured set (and the p50/p95/p99
      // derived from it) is identical for every thread count.
      w.metrics.reservoir("sim.trial_ms").observe(t, ms);
      chaos::inject_after_trial(policy.chaos, t, m);
    } catch (const std::exception& e) {
      note_fault(w, t, FaultKind::kException, phase, e.what());
      ok = false;
    } catch (...) {  // contained, not swallowed: recorded + counted above
      note_fault(w, t, FaultKind::kException, phase, "unknown exception");
      ok = false;
    }
    if (ok && policy.trial_timeout_ms > 0.0 &&
        watchdog.elapsed_ms() > policy.trial_timeout_ms) {
      std::ostringstream os;
      os << "trial took " << watchdog.elapsed_ms()
         << " ms, over --trial-timeout-ms=" << policy.trial_timeout_ms;
      note_fault(w, t, FaultKind::kTimeout, phase, os.str());
      ok = false;
    }
    if (ok && !all_finite(m)) {
      note_fault(w, t, FaultKind::kNonFinite, phase,
                 "non-finite metric value");
      ok = false;
    }
    if (ok) w.agg.add(m);
  };

  SharedProgress shared(progress, trials, start);
  const std::uint64_t every =
      session != nullptr ? session->params().every : 0;

  std::uint64_t next = start;
  while (next < trials) {
    // Chunked execution: a barrier per checkpoint interval. The partition
    // within each chunk folds trial t into workers[t % resolved], which is
    // exactly the residue-class a chunkless run uses — per-worker fold
    // order is unchanged, so chunking never changes the bits.
    const std::uint64_t base = next;
    const std::uint64_t end = (session != nullptr && every > 0)
                                  ? std::min(trials, base + every)
                                  : trials;
    rit::parallel_for_strided(
        end - base, resolved, [&](std::uint64_t i, unsigned /*worker*/) {
          if (aborting.load(std::memory_order_relaxed)) return;
          const std::uint64_t t = base + i;
          run_one(workers[t % resolved], t);
          shared.tick();
        });
    next = end;
    if (aborting.load(std::memory_order_relaxed)) break;
    if (session != nullptr && next < trials) {
      std::vector<WorkerCheckpoint> cut(resolved);
      for (unsigned w = 0; w < resolved; ++w) {
        cut[w] = WorkerCheckpoint{workers[w].agg, workers[w].faults};
      }
      session->save_partial(point, next, std::move(cut));
      if (policy.chaos.kill_after_checkpoints != chaos::kNever &&
          session->checkpoints_written() >=
              policy.chaos.kill_after_checkpoints) {
        throw chaos::ChaosKill(session->checkpoints_written());
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(abort_mu);
    if (abort_error) {
      if (session != nullptr) {
        // Forensic flush before the abort surfaces: the partial aggregate
        // and every contained fault land in `<checkpoint>.aborted`. This is
        // evidence, not a resumable cut — the per-worker states are
        // mid-chunk here, so no cursor value describes them consistently
        // and writing them as a partial would corrupt resume.
        GuardedResult partial;
        for (const WorkerState& w : workers) {
          partial.metrics.merge(w.agg);
          partial.faults.merge(w.faults);
        }
        session->save_aborted(point, partial, abort_reason);
      }
      std::rethrow_exception(abort_error);
    }
  }

  obs::MetricsSnapshot merged;
  for (const WorkerState& w : workers) merged.merge(w.metrics.snapshot());
  obs::Registry::global().absorb(merged);

  GuardedResult out;
  for (const WorkerState& w : workers) {
    out.metrics.merge(w.agg);
    out.faults.merge(w.faults);
  }
  if (session != nullptr) session->complete_point(point, out);
  return out;
}

}  // namespace rit::sim
