// The process-isolated sweep supervisor: undisturbed parity with the
// in-process engine, the signal death matrix (SIGKILL/SIGSEGV/SIGABRT ×
// shard counts) with bit-identical recovery, OOM-rlimit and hang-watchdog
// containment, quarantine-budget exhaustion, and the shard payload wire
// format. Everything here forks real processes and kills them for real.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aggregate_bits.h"
#include "hostile_input.h"
#include "common/check.h"
#include "platform/shard_worker.h"
#include "platform/supervisor.h"
#include "sim/checkpoint.h"
#include "sim/fault.h"
#include "sim/guarded.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "testkit/chaos.h"

// ASan changes two things the death matrix depends on: it installs its own
// SIGSEGV handler (a raise(SIGSEGV) becomes a plain exit, still a worker
// death but with different forensic text), and RLIMIT_AS is incompatible
// with the shadow-memory mapping. The affected assertions gate on this.
#if defined(__SANITIZE_ADDRESS__)
#define RITCS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RITCS_ASAN 1
#endif
#endif
#ifndef RITCS_ASAN
#define RITCS_ASAN 0
#endif

namespace rit::platform {
namespace {

namespace fs = std::filesystem;
namespace chaos = testkit::chaos;
using sim::AggregateMetrics;
using sim::FaultKind;
using sim::GuardedResult;
using sim::GuardPolicy;
using sim::TrialFault;
using sim::TrialMetrics;
using sim::testbits::expect_aggregate_identical;
using sim::testbits::expect_results_identical;
using sim::testbits::expect_stats_identical;

fs::path scratch(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ritcs_supervisor" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Same pure-function body the guarded kill/resume matrix uses: every field
// (runtimes included) is a function of the trial index, which is what lets
// these tests demand bit-identity across process boundaries and retries.
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

sim::TrialBody synthetic_body() {
  return [](std::uint64_t t, core::RitWorkspace&, std::string*) {
    return synthetic_trial(t);
  };
}

std::uint64_t seed_of(std::uint64_t t) { return t * 1000 + 7; }

sim::Scenario small_scenario() {
  sim::Scenario s;
  s.num_users = 120;
  s.num_types = 3;
  s.tasks_per_type = 10;
  s.k_max = 4;
  s.initial_joiners = 4;
  s.seed = 11;
  return s;
}

/// A sweep session at `dir`/sweep.ckpt that checkpoints every trial, so
/// each shard keeps a durable `.shard<k>` cut to resume from.
sim::CheckpointSession every_trial_session(const fs::path& dir,
                                           unsigned shards,
                                           std::uint64_t trials) {
  sim::CheckpointSession::Params p;
  p.path = (dir / "sweep.ckpt").string();
  p.threads = shards;
  p.trials = trials;
  p.every = 1;
  return sim::CheckpointSession(p);
}

/// A spec whose process-death injector fires on the first attempt only
/// (its marker lives in `dir`), so the relaunched shard recovers.
chaos::ChaosSpec first_attempt_only(const fs::path& dir) {
  chaos::ChaosSpec spec;
  spec.once_dir = dir.string();
  return spec;
}

/// Ledger entries the supervisor appended for recovered worker deaths.
std::vector<TrialFault> worker_deaths(const GuardedResult& r) {
  std::vector<TrialFault> out;
  for (const TrialFault& f : r.faults.entries) {
    if (f.kind == FaultKind::kWorkerDeath) out.push_back(f);
  }
  return out;
}

TEST(ShardWorker, TrialCountPartitionsExactly) {
  for (const std::uint64_t trials : {1u, 2u, 7u, 12u, 13u, 100u}) {
    for (const unsigned shards : {1u, 2u, 3u, 8u}) {
      if (shards > trials) continue;
      std::uint64_t sum = 0;
      for (unsigned s = 0; s < shards; ++s) {
        sum += shard_trial_count(trials, s, shards);
      }
      EXPECT_EQ(sum, trials) << trials << " trials over " << shards;
    }
  }
  EXPECT_EQ(shard_trial_count(10, 0, 3), 4u);  // 0, 3, 6, 9
  EXPECT_EQ(shard_trial_count(10, 1, 3), 3u);  // 1, 4, 7
  EXPECT_EQ(shard_trial_count(10, 2, 3), 3u);  // 2, 5, 8
}

TEST(ShardWorker, ResultPayloadRoundTripsBitExactly) {
  GuardedResult r;
  for (std::uint64_t t = 0; t < 9; ++t) r.metrics.add(synthetic_trial(t));
  r.metrics.note_failed();
  r.faults.record(4, seed_of(4), FaultKind::kException, "run_trial",
                  "synthetic: something threw");
  const ShardPayload back = parse_shard_payload(serialize_shard_result(r));
  ASSERT_TRUE(back.ok) << back.error;
  expect_results_identical(back.result, r);
}

TEST(ShardWorker, ErrorPayloadRoundTripsFlattened) {
  const ShardPayload back = parse_shard_payload(
      serialize_shard_error("budget exhausted\nsecond line"));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "budget exhausted second line");
}

TEST(ShardWorker, MalformedPayloadIsRejected) {
  const ShardPayload back = parse_shard_payload("not a payload\n");
  EXPECT_FALSE(back.ok);
  EXPECT_NE(back.error.find("malformed"), std::string::npos);
}

TEST(ShardWorker, HostileResultPayloadsAreRejected) {
  GuardedResult r;
  r.metrics.add(synthetic_trial(1));
  r.faults.record(1, seed_of(1), FaultKind::kException, "run_trial", "x");
  const std::string payload = serialize_shard_result(r);
  const std::string header = payload.substr(0, payload.find('\n') + 1);
  const std::string body =
      hostile::without_footer(payload.substr(header.size()));
  const hostile::Probe probes[] = {
      {"scalar key with no value", "seed", "seed"},
      {"completed count 2^60", "completed", "completed " + hostile::kHugeCount},
      {"faults count 2^60", "faults", "faults " + hostile::kHugeCount},
      {"threads 2^32", "threads", "threads " + hostile::kU32Overflow},
      {"threads 2^32+1", "threads", "threads " + hostile::kU32Wrap},
  };
  for (const auto& p : probes) {
    const std::string text =
        header +
        hostile::with_footer(hostile::replace_key(body, p.key, p.line));
    const std::string outcome = hostile::read_outcome(
        [&] { return parse_shard_payload(text).ok; });
    EXPECT_TRUE(outcome == "CheckFailure" || outcome == "rejected")
        << p.name << ": " << outcome;
  }
}

TEST(Breadcrumb, BeginTrialPublishesTrialSeedAndPhase) {
  BreadcrumbPage page;
  page.begin_trial(41, 9001);
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  std::string phase;
  page.snapshot(&trial, &seed, &phase);
  EXPECT_EQ(trial, 41u);
  EXPECT_EQ(seed, 9001u);
  EXPECT_EQ(phase, "trial");
  EXPECT_EQ(page.seq.load() % 2, 0u);  // no write left in flight
  EXPECT_EQ(page.heartbeat.load(), 1u);
  EXPECT_EQ(page.done.load(), 1u);
}

TEST(Breadcrumb, NotePhaseKeepsTheTrialAndBumpsOnlyTheHeartbeat) {
  BreadcrumbPage page;
  page.begin_trial(7, 77);
  page.note_phase("make_instance");
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  std::string phase;
  page.snapshot(&trial, &seed, &phase);
  EXPECT_EQ(trial, 7u);
  EXPECT_EQ(seed, 77u);
  EXPECT_EQ(phase, "make_instance");
  EXPECT_EQ(page.heartbeat.load(), 2u);
  EXPECT_EQ(page.done.load(), 1u);
}

TEST(Breadcrumb, LongPhaseLabelIsTruncatedToTheBuffer) {
  BreadcrumbPage page;
  const std::string label(100, 'x');
  page.note_phase(label.c_str());
  std::uint64_t trial = 1;
  std::uint64_t seed = 1;
  std::string phase;
  page.snapshot(&trial, &seed, &phase);
  EXPECT_EQ(phase, std::string(sizeof(page.phase) - 1, 'x'));
  EXPECT_EQ(trial, 0u);
  EXPECT_EQ(seed, 0u);
}

TEST(Breadcrumb, FreeNotePhaseFollowsTheCurrentPage) {
  ASSERT_EQ(current_breadcrumb(), nullptr);  // outside any shard worker
  note_phase("ignored");                     // no page: a no-op
  BreadcrumbPage page;
  set_current_breadcrumb(&page);
  EXPECT_EQ(current_breadcrumb(), &page);
  note_phase("run_trial");
  set_current_breadcrumb(nullptr);
  note_phase("after");
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;
  std::string phase;
  page.snapshot(&trial, &seed, &phase);
  EXPECT_EQ(phase, "run_trial");
  EXPECT_EQ(page.heartbeat.load(), 1u);
}

TEST(Supervisor, UndisturbedMatchesInProcessBitExactly) {
  const std::uint64_t trials = 13;
  for (const unsigned shards : {1u, 2u, 8u}) {
    const GuardedResult reference = sim::run_trials_guarded(
        trials, shards, GuardPolicy{}, synthetic_body(), seed_of);
    const GuardedResult supervised =
        run_trials_supervised(trials, shards, SupervisorOptions{},
                              GuardPolicy{}, synthetic_body(), seed_of);
    expect_results_identical(supervised, reference);
  }
}

TEST(Supervisor, SignalDeathMatrixRecoversBitIdentical) {
  const std::uint64_t trials = 12;
  const std::uint64_t kill_at = 7;
  for (const int sig : {SIGKILL, SIGSEGV, SIGABRT}) {
    for (const unsigned shards : {1u, 2u, 8u}) {
      const fs::path dir = scratch("sig" + std::to_string(sig) + "_k" +
                                   std::to_string(shards));
      const GuardedResult reference = sim::run_trials_guarded(
          trials, shards, GuardPolicy{}, synthetic_body(), seed_of);

      sim::CheckpointSession session =
          every_trial_session(dir, shards, trials);
      chaos::ChaosSpec spec = first_attempt_only(dir);
      spec.signal_on_trial = kill_at;
      spec.signal_number = sig;
      const GuardedResult supervised = run_trials_supervised(
          trials, shards, SupervisorOptions{}, GuardPolicy{},
          chaos::inject(spec, synthetic_body()), seed_of, &session);

      expect_aggregate_identical(supervised.metrics, reference.metrics);
      const std::vector<TrialFault> deaths = worker_deaths(supervised);
      ASSERT_EQ(deaths.size(), 1u)
          << "signal " << sig << " shards " << shards;
      EXPECT_EQ(supervised.faults.size(),
                reference.faults.size() + deaths.size());
      EXPECT_EQ(deaths[0].trial, kill_at);
      EXPECT_EQ(deaths[0].seed, seed_of(kill_at));
#if !RITCS_ASAN
      const char* name = sig == SIGKILL   ? "SIGKILL"
                         : sig == SIGSEGV ? "SIGSEGV"
                                          : "SIGABRT";
      EXPECT_NE(deaths[0].reason.find(name), std::string::npos)
          << deaths[0].reason;
#endif
    }
  }
}

TEST(Supervisor, DeathAtFirstAndLastTrialRecovers) {
  const std::uint64_t trials = 12;
  for (const std::uint64_t kill_at : {std::uint64_t{0}, trials - 1}) {
    const fs::path dir = scratch("edge" + std::to_string(kill_at));
    const GuardedResult reference = sim::run_trials_guarded(
        trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
    sim::CheckpointSession session = every_trial_session(dir, 2, trials);
    chaos::ChaosSpec spec = first_attempt_only(dir);
    spec.signal_on_trial = kill_at;
    spec.signal_number = SIGKILL;
    const GuardedResult supervised = run_trials_supervised(
        trials, 2, SupervisorOptions{}, GuardPolicy{},
        chaos::inject(spec, synthetic_body()), seed_of, &session);
    expect_aggregate_identical(supervised.metrics, reference.metrics);
    EXPECT_EQ(worker_deaths(supervised).size(), 1u);
  }
}

TEST(Supervisor, RetryWorksWithoutDurableState) {
  // No session: the relaunched shard replays its residue class from trial
  // 0 — still deterministic, so the recovered run stays bit-identical.
  const std::uint64_t trials = 10;
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  chaos::ChaosSpec spec = first_attempt_only(scratch("no_session"));
  spec.signal_on_trial = 5;
  spec.signal_number = SIGKILL;
  const GuardedResult supervised = run_trials_supervised(
      trials, 2, SupervisorOptions{}, GuardPolicy{},
      chaos::inject(spec, synthetic_body()), seed_of);
  expect_aggregate_identical(supervised.metrics, reference.metrics);
  EXPECT_EQ(worker_deaths(supervised).size(), 1u);
}

TEST(Supervisor, OomUnderRlimitIsAttributedAndRecovered) {
#if RITCS_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#else
  const std::uint64_t trials = 6;
  const fs::path dir = scratch("oom");
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  sim::CheckpointSession session = every_trial_session(dir, 2, trials);
  SupervisorOptions opts;
  opts.shard_mem_mb = 512;
  chaos::ChaosSpec spec = first_attempt_only(dir);
  spec.oom_on_trial = 3;
  const GuardedResult supervised =
      run_trials_supervised(trials, 2, opts, GuardPolicy{},
                            chaos::inject(spec, synthetic_body()), seed_of,
                            &session);
  expect_aggregate_identical(supervised.metrics, reference.metrics);
  const std::vector<TrialFault> deaths = worker_deaths(supervised);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].trial, 3u);
  EXPECT_NE(deaths[0].reason.find("OOM"), std::string::npos)
      << deaths[0].reason;
  EXPECT_NE(deaths[0].reason.find("address-space"), std::string::npos)
      << deaths[0].reason;
#endif
}

TEST(Supervisor, HangWatchdogKillsAndRecovers) {
  const std::uint64_t trials = 8;
  const fs::path dir = scratch("hang");
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  sim::CheckpointSession session = every_trial_session(dir, 2, trials);
  SupervisorOptions opts;
  opts.heartbeat_timeout_ms = 500;
  chaos::ChaosSpec spec = first_attempt_only(dir);
  spec.hang_on_trial = 3;
  const GuardedResult supervised =
      run_trials_supervised(trials, 2, opts, GuardPolicy{},
                            chaos::inject(spec, synthetic_body()), seed_of,
                            &session);
  expect_aggregate_identical(supervised.metrics, reference.metrics);
  const std::vector<TrialFault> deaths = worker_deaths(supervised);
  ASSERT_GE(deaths.size(), 1u);
  bool saw_hang = false;
  for (const TrialFault& d : deaths) {
    if (d.reason.find("hung") != std::string::npos) saw_hang = true;
  }
  EXPECT_TRUE(saw_hang);
}

TEST(Supervisor, QuarantineExhaustionAbortsAndFlushesForensics) {
  const std::uint64_t trials = 6;
  const fs::path dir = scratch("quarantine");
  const std::string ckpt = (dir / "sweep.ckpt").string();

  sim::CheckpointSession::Params p;
  p.path = ckpt;
  p.config_hash = 1234;
  p.threads = 2;  // == resolved shard count
  p.trials = trials;
  p.every = 1;
  sim::CheckpointSession session(p);

  SupervisorOptions opts;
  opts.shard_retries = 1;
  chaos::ChaosSpec spec;  // no once_dir: fires on every attempt
  spec.signal_on_trial = 1;  // shard 1's first trial
  spec.signal_number = SIGKILL;

  try {
    run_trials_supervised(trials, 2, opts, GuardPolicy{},
                          chaos::inject(spec, synthetic_body()), seed_of,
                          &session);
    FAIL() << "quarantine exhaustion must abort with CheckFailure";
  } catch (const rit::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos)
        << e.what();
  }

  std::ifstream in(session.aborted_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << session.aborted_path();
  std::ostringstream content;
  content << in.rdbuf();
  const sim::AbortedRecord rec =
      sim::parse_aborted(content.str(), session.aborted_path());
  EXPECT_EQ(rec.point, 0u);
  EXPECT_NE(rec.reason.find("quarantined"), std::string::npos) << rec.reason;
  // Launch + one retry, both killed on the same trial: two death records.
  std::uint64_t death_count = 0;
  for (const TrialFault& f : rec.partial.faults.entries) {
    if (f.kind == FaultKind::kWorkerDeath) {
      ++death_count;
      EXPECT_EQ(f.trial, 1u);
    }
  }
  EXPECT_EQ(death_count, 2u);
}

TEST(Supervisor, InProcessCheckpointResumesSupervised) {
  // A sweep checkpointed by the in-process engine at --threads=K resumes
  // under the supervisor at the same --threads: the binding is the
  // partition width, which both engines share.
  const std::uint64_t trials = 10;
  const fs::path dir = scratch("interchange");
  const std::string ckpt = (dir / "sweep.ckpt").string();
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);

  {
    sim::CheckpointSession::Params p;
    p.path = ckpt;
    p.config_hash = 77;
    p.threads = 2;
    p.trials = trials;
    p.every = 2;
    sim::CheckpointSession session(p);
    session.set_after_save(chaos::kill_after_checkpoints(2));
    EXPECT_THROW(sim::run_trials_guarded(trials, 2, GuardPolicy{},
                                         synthetic_body(), seed_of, &session),
                 chaos::ChaosKill);
  }

  sim::CheckpointSession::Params p;
  p.path = ckpt;
  p.config_hash = 77;
  p.threads = 2;
  p.trials = trials;
  p.every = 2;
  p.resume = true;
  sim::CheckpointSession session(p);
  std::uint64_t cursor = 0;
  std::vector<sim::WorkerCheckpoint> saved;
  ASSERT_TRUE(session.partial_state(0, &cursor, &saved));
  ASSERT_EQ(cursor, 4u);  // two cuts, two trials apart
  // The shards resume from the in-process cut: a trial below it never runs
  // again (it would throw, and the contained fault would break identity).
  const sim::TrialBody resumed_body =
      [cursor](std::uint64_t t, core::RitWorkspace&, std::string*) {
        if (t < cursor) throw std::runtime_error("replayed a restored trial");
        return synthetic_trial(t);
      };
  const GuardedResult supervised =
      run_trials_supervised(trials, 2, SupervisorOptions{}, GuardPolicy{},
                            resumed_body, seed_of, &session);
  expect_results_identical(supervised, reference);

  // And the completed point round-trips through the parent session.
  sim::GuardedResult again;
  ASSERT_TRUE(session.completed_point(0, &again));
  expect_results_identical(again, supervised);
}

TEST(Supervisor, ProgressCountsTheTrialsShardsRestore) {
  // A first run dies on shard 1's fourth trial with no retry left, leaving
  // each shard's cut on disk. The resumed run's first progress value
  // already counts every trial those cuts hold.
  const std::uint64_t trials = 10;
  const fs::path dir = scratch("progress");
  {
    sim::CheckpointSession session = every_trial_session(dir, 2, trials);
    SupervisorOptions opts;
    opts.shard_retries = 0;
    chaos::ChaosSpec spec;
    spec.signal_on_trial = 7;  // shard 1: trials 1, 3, 5, 7, 9
    spec.signal_number = SIGKILL;
    EXPECT_THROW(run_trials_supervised(trials, 2, opts, GuardPolicy{},
                                       chaos::inject(spec, synthetic_body()),
                                       seed_of, &session),
                 rit::CheckFailure);
  }
  std::uint64_t restored = 0;
  for (unsigned k = 0; k < 2; ++k) {
    const std::string path =
        (dir / ("sweep.ckpt.shard" + std::to_string(k))).string();
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) continue;
    std::ostringstream content;
    content << in.rdbuf();
    const sim::CheckpointData data = sim::parse_checkpoint(content.str(), path);
    restored += !data.completed.empty()
                    ? shard_trial_count(trials, k, 2)
                    : (data.has_partial ? data.partial_cursor : 0);
  }
  ASSERT_GE(restored, 3u);  // shard 1 saved a cut after each of 1, 3 and 5

  sim::CheckpointSession::Params p;
  p.path = (dir / "sweep.ckpt").string();
  p.threads = 2;
  p.trials = trials;
  p.every = 1;
  p.resume = true;
  sim::CheckpointSession session(p);
  std::vector<std::uint64_t> seen;
  const GuardedResult resumed = run_trials_supervised(
      trials, 2, SupervisorOptions{}, GuardPolicy{}, synthetic_body(),
      seed_of, &session, 0,
      [&seen](std::uint64_t done, std::uint64_t) { seen.push_back(done); });
  ASSERT_FALSE(seen.empty());
  EXPECT_GE(seen.front(), restored);
  EXPECT_EQ(seen.back(), trials);
  const GuardedResult reference = sim::run_trials_guarded(
      trials, 2, GuardPolicy{}, synthetic_body(), seed_of);
  expect_results_identical(resumed, reference);
}

TEST(Supervisor, ScenarioDrivenParityOnDeterministicFields) {
  // Real scenario trials time themselves (runtime_* is wall clock), so the
  // cross-engine comparison pins every *deterministic* field bit-exactly
  // and leaves only the measured runtimes out.
  const sim::Scenario s = small_scenario();
  const std::uint64_t trials = 6;
  const GuardedResult reference = run_many(s, trials, 2, GuardPolicy{});
  const SupervisorOptions isolate;
  const GuardedResult supervised =
      run_many(s, trials, 2, GuardPolicy{}, &isolate);

  const AggregateMetrics& a = supervised.metrics;
  const AggregateMetrics& b = reference.metrics;
  expect_stats_identical(a.avg_utility_auction, b.avg_utility_auction,
                         "avg_utility_auction");
  expect_stats_identical(a.avg_utility_rit, b.avg_utility_rit,
                         "avg_utility_rit");
  expect_stats_identical(a.total_payment_auction, b.total_payment_auction,
                         "total_payment_auction");
  expect_stats_identical(a.total_payment_rit, b.total_payment_rit,
                         "total_payment_rit");
  expect_stats_identical(a.solicitation_premium, b.solicitation_premium,
                         "solicitation_premium");
  expect_stats_identical(a.tasks_allocated, b.tasks_allocated,
                         "tasks_allocated");
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.degraded_trials, b.degraded_trials);
  EXPECT_EQ(a.failed_trials, b.failed_trials);
  EXPECT_EQ(a.quarantined_trials, b.quarantined_trials);
  EXPECT_TRUE(supervised.faults.empty());
}

}  // namespace
}  // namespace rit::platform
