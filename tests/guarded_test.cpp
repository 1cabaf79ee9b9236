// The fault-tolerant trial engine: containment, failure budget, watchdog,
// and the kill/resume matrix proving checkpointed sweeps are bit-identical
// to uninterrupted ones at every checkpoint boundary × thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aggregate_bits.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "platform/supervisor.h"
#include "sim/checkpoint.h"
#include "sim/fault.h"
#include "sim/guarded.h"
#include "sim/metrics.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "testkit/chaos.h"

namespace rit::sim {
namespace {

namespace fs = std::filesystem;
namespace chaos = testkit::chaos;
using testbits::expect_aggregate_identical;
using testbits::expect_results_identical;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ritcs_guarded" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// A trial body that is a pure function of the trial index — including the
// "runtime" fields, which a real trial would time nondeterministically.
// That purity is what lets the kill/resume matrix demand bit-identity on
// every AggregateMetrics field, runtimes included.
TrialMetrics synthetic_trial(std::uint64_t t) {
  const double x = static_cast<double>(t);
  TrialMetrics m;
  m.success = (t % 3) != 0;
  m.avg_utility_auction = 0.25 * x - 1.0;
  m.avg_utility_rit = 1.0 / (x + 3.0);
  m.total_payment_auction = 10.0 + x;
  m.total_payment_rit = 20.0 + 2.0 * x;
  m.runtime_auction_ms = 0.125 * x;
  m.runtime_rit_ms = 0.5 + x / 7.0;
  m.solicitation_premium = 0.75 * x;
  m.tasks_allocated = t % 7;
  m.probability_degraded = (t % 5) == 0;
  return m;
}

TrialBody synthetic_body(std::atomic<std::uint64_t>* executed = nullptr) {
  return [executed](std::uint64_t t, core::RitWorkspace&, std::string*) {
    if (executed != nullptr) {
      executed->fetch_add(1, std::memory_order_relaxed);
    }
    return synthetic_trial(t);
  };
}

std::uint64_t seed_of(std::uint64_t t) { return t * 1000 + 7; }

Scenario small_scenario() {
  Scenario s;
  s.num_users = 120;
  s.num_types = 3;
  s.tasks_per_type = 10;
  s.k_max = 4;
  s.initial_joiners = 4;
  s.seed = 11;
  return s;
}

TEST(Guarded, SingleThreadMatchesSerialFoldBitExactly) {
  const std::uint64_t trials = 9;
  const GuardedResult r =
      run_trials_guarded(trials, 1, GuardPolicy{}, synthetic_body());
  AggregateMetrics expected;
  for (std::uint64_t t = 0; t < trials; ++t) {
    expected.add(synthetic_trial(t));
  }
  expect_aggregate_identical(r.metrics, expected);
  EXPECT_TRUE(r.faults.empty());
}

TEST(Guarded, SameThreadCountIsReproducible) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const GuardedResult a =
        run_trials_guarded(13, threads, GuardPolicy{}, synthetic_body());
    const GuardedResult b =
        run_trials_guarded(13, threads, GuardPolicy{}, synthetic_body());
    expect_results_identical(a, b);
  }
}

TEST(Guarded, InjectedThrowIsContainedAndLedgered) {
  GuardPolicy policy;
  policy.max_trial_failures = 2;
  chaos::ChaosSpec spec;
  spec.throw_on_trial = 3;
  const GuardedResult r = run_trials_guarded(
      8, 2, policy, chaos::inject(spec, synthetic_body()), seed_of);

  EXPECT_EQ(r.metrics.trials, 7u);
  EXPECT_EQ(r.metrics.failed_trials, 1u);
  EXPECT_EQ(r.metrics.quarantined_trials, 0u);
  EXPECT_EQ(r.metrics.attempted(), 8u);
  ASSERT_EQ(r.faults.size(), 1u);
  const TrialFault& f = r.faults.entries[0];
  EXPECT_EQ(f.trial, 3u);
  EXPECT_EQ(f.seed, seed_of(3));
  EXPECT_EQ(f.kind, FaultKind::kException);
  EXPECT_EQ(f.phase, "trial");
  EXPECT_NE(f.reason.find("chaos: injected throw"), std::string::npos);
}

TEST(Guarded, DefaultBudgetAbortsOnFirstFaultWithClearError) {
  GuardPolicy policy;  // max_trial_failures = 0: strict
  chaos::ChaosSpec spec;
  spec.throw_on_trial = 2;
  try {
    run_trials_guarded(6, 1, policy, chaos::inject(spec, synthetic_body()),
                       seed_of);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failure budget exhausted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("trial 2"), std::string::npos) << what;
    EXPECT_NE(what.find("--max-trial-failures=0"), std::string::npos) << what;
  }
}

TEST(Guarded, FaultsOverBudgetAbort) {
  GuardPolicy policy;
  policy.max_trial_failures = 1;
  chaos::ChaosSpec spec;
  spec.fault_rate = 1.0;  // every trial throws
  EXPECT_THROW(
      run_trials_guarded(5, 2, policy, chaos::inject(spec, synthetic_body())),
      CheckFailure);
}

TEST(Guarded, AbortFlushesForensicsToAbortedArtifact) {
  // Budget exhaustion with a session must not lose the evidence: the
  // partial aggregate and the full fault ledger land in `.aborted` before
  // the CheckFailure surfaces.
  const fs::path dir = scratch("aborted_flush");
  CheckpointSession::Params p;
  p.path = (dir / "run.ckpt").string();
  p.config_hash = 5;
  p.threads = 2;
  p.trials = 8;
  CheckpointSession session(p);

  GuardPolicy policy;
  policy.max_trial_failures = 1;
  chaos::ChaosSpec spec;
  spec.fault_rate = 1.0;  // every trial throws; budget blows fast
  EXPECT_THROW(run_trials_guarded(8, 2, policy,
                                  chaos::inject(spec, synthetic_body()),
                                  seed_of, &session),
               CheckFailure);

  std::ifstream in(session.aborted_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << session.aborted_path();
  std::ostringstream content;
  content << in.rdbuf();
  const AbortedRecord rec =
      parse_aborted(content.str(), session.aborted_path());
  EXPECT_EQ(rec.point, 0u);
  EXPECT_NE(rec.reason.find("failure budget exhausted"), std::string::npos)
      << rec.reason;
  EXPECT_FALSE(rec.partial.faults.empty());
  EXPECT_GE(rec.partial.metrics.failed_trials, 2u);
}

TEST(Guarded, NonFiniteMetricsAreQuarantined) {
  GuardPolicy policy;
  policy.max_trial_failures = 1;
  chaos::ChaosSpec spec;
  spec.nan_on_trial = 4;
  const GuardedResult r = run_trials_guarded(
      6, 2, policy, chaos::inject(spec, synthetic_body()), seed_of);

  EXPECT_EQ(r.metrics.trials, 5u);
  EXPECT_EQ(r.metrics.failed_trials, 0u);
  EXPECT_EQ(r.metrics.quarantined_trials, 1u);
  ASSERT_EQ(r.faults.size(), 1u);
  EXPECT_EQ(r.faults.entries[0].trial, 4u);
  EXPECT_EQ(r.faults.entries[0].kind, FaultKind::kNonFinite);
  EXPECT_EQ(r.faults.entries[0].reason, "non-finite metric value");
  // The NaN never reached the accumulators.
  EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.mean()));
  EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.variance()));
}

TEST(Guarded, WatchdogFlagsSlowTrialPostHoc) {
  GuardPolicy policy;
  policy.max_trial_failures = 1;
  policy.trial_timeout_ms = 5.0;
  chaos::ChaosSpec spec;
  spec.delay_on_trial = 1;
  spec.delay_ms = 25.0;  // busy-wait well past the deadline
  const GuardedResult r = run_trials_guarded(
      3, 1, policy, chaos::inject(spec, synthetic_body()), seed_of);

  EXPECT_EQ(r.metrics.trials, 2u);
  EXPECT_EQ(r.metrics.failed_trials, 1u);
  ASSERT_EQ(r.faults.size(), 1u);
  EXPECT_EQ(r.faults.entries[0].trial, 1u);
  EXPECT_EQ(r.faults.entries[0].kind, FaultKind::kTimeout);
  EXPECT_NE(r.faults.entries[0].reason.find("--trial-timeout-ms"),
            std::string::npos);
}

TEST(Guarded, FaultRateDrawsAreIndependentOfThreadCount) {
  GuardPolicy policy;
  policy.max_trial_failures = 64;
  chaos::ChaosSpec spec;
  spec.fault_rate = 0.4;
  spec.seed = 9;
  auto faulted_trials = [&](unsigned threads) {
    const GuardedResult r = run_trials_guarded(
        32, threads, policy, chaos::inject(spec, synthetic_body()));
    std::vector<std::uint64_t> trials;
    for (const TrialFault& f : r.faults.sorted_by_trial()) {
      trials.push_back(f.trial);
    }
    return trials;
  };
  const std::vector<std::uint64_t> serial = faulted_trials(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_LT(serial.size(), 32u);
  EXPECT_EQ(faulted_trials(4), serial);
  EXPECT_EQ(faulted_trials(8), serial);
}

TEST(Guarded, ZeroSuccessfulTrialsYieldsNanFreeReporting) {
  GuardPolicy policy;
  policy.max_trial_failures = 8;
  chaos::ChaosSpec spec;
  spec.fault_rate = 1.0;  // every trial faults, all contained
  const GuardedResult r = run_trials_guarded(
      4, 2, policy, chaos::inject(spec, synthetic_body()), seed_of);

  EXPECT_EQ(r.metrics.trials, 0u);
  EXPECT_EQ(r.metrics.failed_trials, 4u);
  EXPECT_EQ(r.metrics.success_rate(), 0.0);
  EXPECT_EQ(r.metrics.degraded_rate(), 0.0);
  // Every value a writer would render is a real number, and the rendered
  // markdown (the bench/CLI table) carries no NaN/inf tokens.
  EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.mean()));
  EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.min()));
  EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.max()));
  EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.ci95_half_width()));
  std::string md = aggregate_markdown(r.metrics);
  std::transform(md.begin(), md.end(), md.begin(),
                 [](unsigned char c) { return static_cast<char>(
                     std::tolower(c)); });
  EXPECT_EQ(md.find("nan"), std::string::npos) << md;
  EXPECT_EQ(md.find("inf"), std::string::npos) << md;
  EXPECT_NE(md.find("4 failed"), std::string::npos) << md;
}

// ---------------------------------------------------------------------------
// The kill/resume matrix. trials=11, every=3 gives checkpoint writes after
// trials 3, 6 and 9 (then the final complete_point), so kill_after ∈
// {1,2,3} exercises a death at every mid-point checkpoint boundary.
// ---------------------------------------------------------------------------

CheckpointSession::Params matrix_params(const std::string& path,
                                        unsigned threads, bool resume) {
  CheckpointSession::Params p;
  p.path = path;
  p.config_hash = 0x12340000ull + threads;
  p.seed = 77;
  p.threads = threads;
  p.trials = 11;
  p.every = 3;
  p.resume = resume;
  return p;
}

TEST(GuardedResume, KillAtEveryBoundaryResumesBitIdentically) {
  constexpr std::uint64_t kTrials = 11;
  constexpr std::uint64_t kEvery = 3;
  for (const unsigned threads : {1u, 2u, 8u}) {
    // Uninterrupted, checkpoint-free reference at the same thread count.
    const GuardedResult reference =
        run_trials_guarded(kTrials, threads, GuardPolicy{}, synthetic_body(),
                           seed_of);
    for (std::uint64_t kill_after = 1; kill_after <= 3; ++kill_after) {
      const fs::path dir =
          scratch("matrix_t" + std::to_string(threads) + "_k" +
                  std::to_string(kill_after));
      const std::string path = (dir / "sweep.ckpt").string();

      auto doomed = std::make_unique<CheckpointSession>(
          matrix_params(path, threads, false));
      doomed->set_after_save(chaos::kill_after_checkpoints(kill_after));
      EXPECT_THROW(run_trials_guarded(kTrials, threads, GuardPolicy{},
                                      synthetic_body(), seed_of,
                                      doomed.get()),
                   chaos::ChaosKill);
      doomed.reset();  // the "dead process" releases the file

      std::atomic<std::uint64_t> executed{0};
      CheckpointSession revived(matrix_params(path, threads, true));
      const GuardedResult resumed =
          run_trials_guarded(kTrials, threads, GuardPolicy{},
                             synthetic_body(&executed), seed_of, &revived);

      expect_results_identical(resumed, reference);
      // Resume picked up at the checkpoint cursor instead of starting over.
      EXPECT_EQ(executed.load(), kTrials - kEvery * kill_after)
          << "threads=" << threads << " kill_after=" << kill_after;
    }
  }
}

TEST(GuardedResume, KillAndResumeWithContainedFaultsMatches) {
  constexpr std::uint64_t kTrials = 10;
  GuardPolicy tolerant;
  tolerant.max_trial_failures = 5;
  chaos::ChaosSpec spec;
  spec.throw_on_trial = 7;
  spec.nan_on_trial = 2;
  const TrialBody chaotic = chaos::inject(spec, synthetic_body());

  for (const unsigned threads : {2u, 8u}) {
    const GuardedResult reference =
        run_trials_guarded(kTrials, threads, tolerant, chaotic, seed_of);
    EXPECT_EQ(reference.faults.size(), 2u);

    const fs::path dir = scratch("faulty_t" + std::to_string(threads));
    const std::string path = (dir / "sweep.ckpt").string();
    CheckpointSession::Params p;
    p.path = path;
    p.config_hash = 0x777;
    p.seed = 77;
    p.threads = threads;
    p.trials = kTrials;
    p.every = 4;
    {
      CheckpointSession doomed(p);
      doomed.set_after_save(chaos::kill_after_checkpoints(1));
      EXPECT_THROW(run_trials_guarded(kTrials, threads, tolerant, chaotic,
                                      seed_of, &doomed),
                   chaos::ChaosKill);
    }
    p.resume = true;
    CheckpointSession revived(p);
    const GuardedResult resumed = run_trials_guarded(
        kTrials, threads, tolerant, chaotic, seed_of, &revived);
    expect_results_identical(resumed, reference);
  }
}

TEST(GuardedResume, CompletedPointIsServedWithoutRerunning) {
  const fs::path dir = scratch("memo");
  const std::string path = (dir / "sweep.ckpt").string();
  CheckpointSession::Params p;
  p.path = path;
  p.config_hash = 0xc0ffee;
  p.seed = 5;
  p.threads = 2;
  p.trials = 6;
  p.every = 0;
  GuardedResult first;
  {
    CheckpointSession s(p);
    first = run_trials_guarded(6, 2, GuardPolicy{}, synthetic_body(), seed_of,
                               &s);
  }
  p.resume = true;
  CheckpointSession again(p);
  std::atomic<std::uint64_t> executed{0};
  const GuardedResult served = run_trials_guarded(
      6, 2, GuardPolicy{}, synthetic_body(&executed), seed_of, &again);
  EXPECT_EQ(executed.load(), 0u);
  expect_results_identical(served, first);
}

TEST(GuardedResume, SessionBoundToDifferentRunShapeIsRejected) {
  const fs::path dir = scratch("shape");
  CheckpointSession::Params p;
  p.path = (dir / "sweep.ckpt").string();
  p.config_hash = 1;
  p.seed = 1;
  p.threads = 4;
  p.trials = 8;
  CheckpointSession s(p);
  // Runner resolves 2 threads, session says 4 — and vice versa for trials.
  EXPECT_THROW(
      run_trials_guarded(8, 2, GuardPolicy{}, synthetic_body(), {}, &s),
      CheckFailure);
  EXPECT_THROW(
      run_trials_guarded(9, 4, GuardPolicy{}, synthetic_body(), {}, &s),
      CheckFailure);
}

// Real trials time themselves with wall-clock timers, so two runs only
// agree bit-for-bit on the mechanism outputs; runtime stats match in shape
// (count) but not value. Mirrors sim_test's thread-count equivalence.
void expect_deterministic_fields_identical(const AggregateMetrics& a,
                                           const AggregateMetrics& b) {
  testbits::expect_stats_identical(a.avg_utility_auction,
                                   b.avg_utility_auction,
                                   "avg_utility_auction");
  testbits::expect_stats_identical(a.avg_utility_rit, b.avg_utility_rit,
                                   "avg_utility_rit");
  testbits::expect_stats_identical(a.total_payment_auction,
                                   b.total_payment_auction,
                                   "total_payment_auction");
  testbits::expect_stats_identical(a.total_payment_rit, b.total_payment_rit,
                                   "total_payment_rit");
  testbits::expect_stats_identical(a.solicitation_premium,
                                   b.solicitation_premium,
                                   "solicitation_premium");
  testbits::expect_stats_identical(a.tasks_allocated, b.tasks_allocated,
                                   "tasks_allocated");
  EXPECT_EQ(a.runtime_auction_ms.count(), b.runtime_auction_ms.count());
  EXPECT_EQ(a.runtime_rit_ms.count(), b.runtime_rit_ms.count());
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.degraded_trials, b.degraded_trials);
  EXPECT_EQ(a.failed_trials, b.failed_trials);
  EXPECT_EQ(a.quarantined_trials, b.quarantined_trials);
}

TEST(GuardedScenario, MatchesResidueClassFoldOfRunTrial) {
  // Trial t folds into worker t % threads and the workers merge in index
  // order, so folding make_instance + run_trial by hand in that partition
  // reproduces the engine's aggregate at every thread count.
  const Scenario s = small_scenario();
  const std::uint64_t trials = 6;
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    std::vector<AggregateMetrics> partial(threads);
    core::RitWorkspace ws;
    for (std::uint64_t t = 0; t < trials; ++t) {
      partial[t % threads].add(run_trial(s, make_instance(s, t), ws));
    }
    AggregateMetrics expected;
    for (const AggregateMetrics& p : partial) expected.merge(p);
    const GuardedResult guarded =
        platform::run_many(s, trials, threads, GuardPolicy{});
    expect_deterministic_fields_identical(guarded.metrics, expected);
    EXPECT_TRUE(guarded.faults.empty());
  }
}

TEST(GuardedScenario, FaultsAreContainedAlikeAtEveryThreadCount) {
  // One worker is not a special case: a throwing trial and a NaN trial are
  // contained and ledgered the same way as on several workers, and the
  // strict default budget aborts on the same trial.
  const Scenario s = small_scenario();
  const TrialSeedFn scenario_seed = [&s](std::uint64_t t) {
    return mechanism_seed_of(s, t);
  };
  GuardPolicy tolerant;
  tolerant.max_trial_failures = 2;
  chaos::ChaosSpec spec;
  spec.throw_on_trial = 1;
  spec.nan_on_trial = 4;
  const TrialBody chaotic = chaos::inject(spec, platform::scenario_body(s));
  chaos::ChaosSpec throw_only;
  throw_only.throw_on_trial = 1;
  const TrialBody throwing =
      chaos::inject(throw_only, platform::scenario_body(s));
  for (const unsigned threads : {1u, 2u, 3u}) {
    SCOPED_TRACE(threads);
    const GuardedResult r =
        run_trials_guarded(6, threads, tolerant, chaotic, scenario_seed);
    EXPECT_EQ(r.metrics.trials, 4u);
    EXPECT_EQ(r.metrics.failed_trials, 1u);
    EXPECT_EQ(r.metrics.quarantined_trials, 1u);
    EXPECT_TRUE(std::isfinite(r.metrics.avg_utility_rit.mean()));
    const std::vector<TrialFault> faults = r.faults.sorted_by_trial();
    ASSERT_EQ(faults.size(), 2u);
    EXPECT_EQ(faults[0].trial, 1u);
    EXPECT_EQ(faults[0].seed, mechanism_seed_of(s, 1));
    EXPECT_EQ(faults[0].kind, FaultKind::kException);
    EXPECT_NE(faults[0].reason.find("chaos: injected throw"),
              std::string::npos);
    EXPECT_EQ(faults[1].trial, 4u);
    EXPECT_EQ(faults[1].seed, mechanism_seed_of(s, 4));
    EXPECT_EQ(faults[1].kind, FaultKind::kNonFinite);

    try {
      run_trials_guarded(6, threads, GuardPolicy{}, throwing, scenario_seed);
      FAIL() << "expected CheckFailure";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("trial 1"), std::string::npos) << what;
      EXPECT_NE(what.find("failure budget exhausted"), std::string::npos)
          << what;
    }
  }
}

TEST(GuardedScenario, KillAndResumeMatchesOnDeterministicFields) {
  // Real trials time themselves, so runtime stats differ run to run; the
  // mechanism outputs must still be bit-identical after a kill/resume.
  const Scenario s = small_scenario();
  const unsigned threads = 2;
  const std::uint64_t trials = 6;
  const GuardedResult reference =
      platform::run_many(s, trials, threads, GuardPolicy{});

  const fs::path dir = scratch("scenario");
  CheckpointSession::Params p;
  p.path = (dir / "sweep.ckpt").string();
  p.config_hash = 0xabc;
  p.seed = s.seed;
  p.threads = threads;
  p.trials = trials;
  p.every = 2;
  {
    CheckpointSession doomed(p);
    doomed.set_after_save(chaos::kill_after_checkpoints(1));
    EXPECT_THROW(
        platform::run_many(s, trials, threads, GuardPolicy{}, nullptr, &doomed),
        chaos::ChaosKill);
  }
  p.resume = true;
  CheckpointSession revived(p);
  const GuardedResult resumed =
      platform::run_many(s, trials, threads, GuardPolicy{}, nullptr,
                         &revived);

  expect_deterministic_fields_identical(resumed.metrics, reference.metrics);
}

TEST(Guarded, ProgressReachesTheFinalTrial) {
  std::uint64_t last_done = 0;
  std::uint64_t last_total = 0;
  const ProgressFn progress = [&](std::uint64_t done, std::uint64_t total) {
    last_done = done;
    last_total = total;
  };
  run_trials_guarded(7, 2, GuardPolicy{}, synthetic_body(), {}, nullptr, 0,
                     progress);
  EXPECT_EQ(last_done, 7u);
  EXPECT_EQ(last_total, 7u);
}

TEST(Guarded, TrialTimingRecordedAtEveryThreadCount) {
  // One worker is not a special case: every trial lands in the global
  // sim.trial_ms stat and reservoir at every thread count. Measured as a
  // delta, because resetting the global registry would free the counters
  // the RIT_COUNTER_* macros keep cached references to.
  obs::Registry& global = obs::Registry::global();
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    const obs::MetricsSnapshot before = global.snapshot();
    const auto prior = before.stats.find("sim.trial_ms");
    const std::uint64_t count_before =
        prior == before.stats.end() ? 0 : prior->second.count();
    run_trials_guarded(8, threads, GuardPolicy{}, synthetic_body());
    const obs::MetricsSnapshot after = global.snapshot();
    ASSERT_EQ(after.stats.count("sim.trial_ms"), 1u);
    EXPECT_EQ(after.stats.at("sim.trial_ms").count() - count_before, 8u);
    ASSERT_EQ(after.reservoirs.count("sim.trial_ms"), 1u);
    const auto& samples = after.reservoirs.at("sim.trial_ms");
    for (std::uint64_t t = 0; t < 8; ++t) EXPECT_EQ(samples.count(t), 1u) << t;
  }
}


// The injectors, one trial at a time through the wrapped body.
TrialMetrics run_wrapped(const TrialBody& body, std::uint64_t t) {
  core::RitWorkspace ws;
  std::string phase = "trial";
  return body(t, ws, &phase);
}

TEST(Chaos, DefaultSpecArmsNothing) {
  const TrialBody body = chaos::inject(chaos::ChaosSpec{}, synthetic_body());
  core::RitWorkspace ws;
  for (std::uint64_t t = 0; t < 16; ++t) {
    std::string phase = "trial";
    TrialMetrics m;
    EXPECT_NO_THROW(m = body(t, ws, &phase));
    EXPECT_EQ(m.avg_utility_rit, synthetic_trial(t).avg_utility_rit);
    EXPECT_EQ(m.avg_utility_auction, synthetic_trial(t).avg_utility_auction);
    EXPECT_EQ(phase, "trial");
  }
}

std::atomic<int> g_raised{0};  // lock-free, so safe in a signal handler
void count_raise(int) { g_raised.fetch_add(1); }

TEST(Chaos, OnceDirFiresAProcessInjectorOnlyOnce) {
  // SIGUSR1 with a counting handler stands in for a fatal signal, so each
  // firing is observable in process.
  const auto previous = std::signal(SIGUSR1, count_raise);
  const fs::path dir = scratch("once");
  chaos::ChaosSpec spec;
  spec.signal_on_trial = 5;
  spec.signal_number = SIGUSR1;
  spec.throw_on_trial = 3;
  const TrialBody every_attempt = chaos::inject(spec, synthetic_body());
  spec.once_dir = dir.string();
  const TrialBody first_attempt = chaos::inject(spec, synthetic_body());

  g_raised.store(0);
  run_wrapped(every_attempt, 5);
  run_wrapped(every_attempt, 5);
  EXPECT_EQ(g_raised.load(), 2);
  g_raised.store(0);
  run_wrapped(first_attempt, 4);
  EXPECT_EQ(g_raised.load(), 0);
  EXPECT_FALSE(fs::exists(dir / "fired.4"));
  run_wrapped(first_attempt, 5);
  EXPECT_EQ(g_raised.load(), 1);
  EXPECT_TRUE(fs::exists(dir / "fired.5"));
  // The relaunch finds the marker and runs the trial clean.
  EXPECT_EQ(run_wrapped(first_attempt, 5).avg_utility_rit,
            synthetic_trial(5).avg_utility_rit);
  EXPECT_EQ(g_raised.load(), 1);
  // Trial injectors fire on every attempt, marker or not.
  EXPECT_THROW(run_wrapped(first_attempt, 3), std::runtime_error);
  EXPECT_THROW(run_wrapped(first_attempt, 3), std::runtime_error);
  std::signal(SIGUSR1, previous);
}

TEST(Chaos, ThrowFiresOnlyOnItsTrial) {
  chaos::ChaosSpec spec;
  spec.throw_on_trial = 2;
  const TrialBody body = chaos::inject(spec, synthetic_body());
  EXPECT_NO_THROW(run_wrapped(body, 0));
  EXPECT_NO_THROW(run_wrapped(body, 1));
  EXPECT_THROW(run_wrapped(body, 2), std::runtime_error);
  EXPECT_NO_THROW(run_wrapped(body, 3));
}

TEST(Chaos, FaultRateIsAPureFunctionOfSeedAndTrial) {
  const auto faulted = [](std::uint64_t seed) {
    chaos::ChaosSpec spec;
    spec.fault_rate = 0.5;
    spec.seed = seed;
    const TrialBody body = chaos::inject(spec, synthetic_body());
    std::vector<bool> out;
    for (std::uint64_t t = 0; t < 200; ++t) {
      bool threw = false;
      try {
        run_wrapped(body, t);
      } catch (const std::runtime_error&) {
        threw = true;
      }
      out.push_back(threw);
    }
    return out;
  };
  const std::vector<bool> a = faulted(9);
  EXPECT_EQ(faulted(9), a);
  EXPECT_NE(faulted(10), a);
  const auto hits = std::count(a.begin(), a.end(), true);
  EXPECT_GT(hits, 60);
  EXPECT_LT(hits, 140);
}

TEST(Chaos, NanPoisonsOnlyItsTrial) {
  chaos::ChaosSpec spec;
  spec.nan_on_trial = 5;
  const TrialBody body = chaos::inject(spec, synthetic_body());
  const TrialMetrics clean = run_wrapped(body, 4);
  EXPECT_EQ(clean.avg_utility_rit, synthetic_trial(4).avg_utility_rit);
  const TrialMetrics poisoned = run_wrapped(body, 5);
  EXPECT_TRUE(std::isnan(poisoned.avg_utility_rit));
  EXPECT_EQ(poisoned.avg_utility_auction,
            synthetic_trial(5).avg_utility_auction);
}

TEST(Chaos, DelayBusyWaitsOnlyOnItsTrial) {
  const auto ms_for = [](const chaos::ChaosSpec& spec, std::uint64_t t) {
    const TrialBody body = chaos::inject(spec, synthetic_body());
    const auto start = std::chrono::steady_clock::now();
    run_wrapped(body, t);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  chaos::ChaosSpec spec;
  spec.delay_on_trial = 1;
  spec.delay_ms = 3.0;
  EXPECT_GE(ms_for(spec, 1), 3.0);
  // A ten-second delay armed on trial 1 must not hold up trial 0.
  spec.delay_ms = 10'000.0;
  EXPECT_LT(ms_for(spec, 0), 5'000.0);
}

TEST(Chaos, TruncateAndFlipBitRewriteTheFile) {
  const fs::path dir = scratch("chaos_files");
  const std::string path = (dir / "victim.txt").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "abcdef";
  }
  const auto read = [&path] {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  chaos::flip_bit(path, 1, 0);  // 'b' (0x62) -> 'c' (0x63)
  EXPECT_EQ(read(), "accdef");
  chaos::truncate_file(path, 4);
  EXPECT_EQ(read(), "accd");
  EXPECT_THROW(chaos::truncate_file(path, 5), CheckFailure);
  EXPECT_THROW(chaos::flip_bit(path, 4, 0), CheckFailure);
  EXPECT_THROW(chaos::flip_bit(path, 0, 8), CheckFailure);
  EXPECT_THROW(chaos::flip_bit((dir / "missing").string(), 0, 0),
               CheckFailure);
  EXPECT_EQ(read(), "accd");
}

}  // namespace
}  // namespace rit::sim
