// Checkpoint format and session lifecycle: bit-exact round-trips, checksum
// verification, and refuse-to-resume on any corruption or binding mismatch.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aggregate_bits.h"
#include "hostile_input.h"
#include "common/atomic_file.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/num_io.h"
#include "sim/checkpoint.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "testkit/chaos.h"

namespace rit::sim {
namespace {

namespace fs = std::filesystem;
namespace chaos = testkit::chaos;
using testbits::expect_aggregate_identical;
using testbits::expect_ledgers_identical;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "ritcs_ckpt" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// An aggregate with awkward values — negatives, non-representable decimals,
// huge magnitudes — so a round-trip that loses even one mantissa bit fails.
AggregateMetrics make_agg(double salt) {
  AggregateMetrics a;
  for (int i = 0; i < 3; ++i) {
    TrialMetrics t;
    const double x = salt + 0.1 * static_cast<double>(i);
    t.success = i != 1;
    t.avg_utility_auction = -1.0 / 3.0 + x;
    t.avg_utility_rit = 1e-17 * x;
    t.total_payment_auction = 1e12 + x;
    t.total_payment_rit = 0.1 + x;
    t.runtime_auction_ms = 3.14159 * x;
    t.runtime_rit_ms = x / 7.0;
    t.solicitation_premium = -x;
    t.tasks_allocated = static_cast<std::uint64_t>(i);
    t.probability_degraded = i == 2;
    a.add(t);
  }
  a.note_failed();
  a.note_quarantined();
  return a;
}

FaultLedger make_ledger(std::uint64_t base) {
  FaultLedger ledger;
  ledger.record(base, base * 1000 + 7, FaultKind::kException, "run_trial",
                "reason with several spaces in it");
  ledger.record(base + 1, base * 1000 + 8, FaultKind::kNonFinite, "",
                "non-finite metric value");
  ledger.record(base + 2, base * 1000 + 9, FaultKind::kTimeout,
                "make_instance", "trial took 9 ms");
  return ledger;
}

CheckpointData make_data() {
  CheckpointData d;
  d.config_hash = 0xfeedface12345678ull;
  d.seed = 42;
  d.threads = 3;
  d.trials = 100;
  d.every = 10;
  d.completed.push_back(WorkerCheckpoint{make_agg(1.0), make_ledger(5)});
  d.completed.push_back(WorkerCheckpoint{make_agg(-2.5), FaultLedger{}});
  d.has_partial = true;
  d.partial_point = 2;
  d.partial_cursor = 30;
  d.partial_workers.push_back(WorkerCheckpoint{make_agg(7.75), FaultLedger{}});
  d.partial_workers.push_back(
      WorkerCheckpoint{AggregateMetrics{}, make_ledger(11)});
  d.partial_workers.push_back(WorkerCheckpoint{make_agg(0.0), FaultLedger{}});
  return d;
}

TEST(FaultKind, NamesRoundTripThroughParse) {
  for (const FaultKind kind :
       {FaultKind::kException, FaultKind::kNonFinite, FaultKind::kTimeout,
        FaultKind::kWorkerDeath}) {
    EXPECT_EQ(parse_fault_kind(to_string(kind)), kind) << to_string(kind);
  }
  EXPECT_STREQ(to_string(FaultKind::kWorkerDeath), "worker-death");
}

TEST(FaultKind, ParseRejectsUnknownName) {
  EXPECT_THROW(parse_fault_kind("unknown"), CheckFailure);
  EXPECT_THROW(parse_fault_kind(""), CheckFailure);
  EXPECT_THROW(parse_fault_kind("Timeout"), CheckFailure);
}

TEST(FaultLedger, RecordFlattensLineBreaksInReasons) {
  FaultLedger ledger;
  ledger.record(3, 37, FaultKind::kException, "run_trial",
                "first line\nsecond\r\nthird");
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.entries[0].reason, "first line second  third");
  EXPECT_EQ(ledger.entries[0].phase, "run_trial");
  EXPECT_EQ(ledger.entries[0].seed, 37u);
}

TEST(FaultLedger, MergeAppendsInCallOrder) {
  FaultLedger a = make_ledger(10);
  const FaultLedger b = make_ledger(1);
  a.merge(b);
  a.merge(FaultLedger{});
  ASSERT_EQ(a.size(), 6u);
  EXPECT_EQ(a.entries[0].trial, 10u);
  EXPECT_EQ(a.entries[3].trial, 1u);
  EXPECT_EQ(a.entries[5].trial, 3u);
}

TEST(FaultLedger, SortedByTrialIsStableForEqualTrials) {
  FaultLedger ledger;
  ledger.record(4, 1, FaultKind::kException, "a", "first at 4");
  ledger.record(2, 2, FaultKind::kTimeout, "b", "only at 2");
  ledger.record(4, 3, FaultKind::kNonFinite, "c", "second at 4");
  const std::vector<TrialFault> sorted = ledger.sorted_by_trial();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].reason, "only at 2");
  EXPECT_EQ(sorted[1].reason, "first at 4");
  EXPECT_EQ(sorted[2].reason, "second at 4");
  // The ledger itself keeps its merge order.
  EXPECT_EQ(ledger.entries[0].reason, "first at 4");
}

TEST(FaultLedger, MarkdownListsInTrialOrderAndCapsWithATail) {
  FaultLedger ledger;
  for (std::uint64_t t = 5; t-- > 0;) {
    ledger.record(t, t + 100, FaultKind::kTimeout, "run_trial",
                  "slow " + format_u64(t));
  }
  const std::string md = ledger.markdown(2);
  EXPECT_EQ(md,
            "- trial 0 (seed 100, run_trial): timeout — slow 0\n"
            "- trial 1 (seed 101, run_trial): timeout — slow 1\n"
            "- … and 3 more\n");
  EXPECT_EQ(FaultLedger{}.markdown(), "");
  const std::string all = ledger.markdown(5);
  EXPECT_EQ(all.find("more"), std::string::npos) << all;
}

TEST(CheckpointFormat, RoundTripIsBitExact) {
  const CheckpointData d = make_data();
  const std::string text = serialize_checkpoint(d);
  const CheckpointData back = parse_checkpoint(text, "test");

  EXPECT_EQ(back.config_hash, d.config_hash);
  EXPECT_EQ(back.seed, d.seed);
  EXPECT_EQ(back.threads, d.threads);
  EXPECT_EQ(back.trials, d.trials);
  EXPECT_EQ(back.every, d.every);
  ASSERT_EQ(back.completed.size(), d.completed.size());
  for (std::size_t i = 0; i < d.completed.size(); ++i) {
    expect_aggregate_identical(back.completed[i].agg, d.completed[i].agg);
    expect_ledgers_identical(back.completed[i].faults, d.completed[i].faults);
  }
  EXPECT_TRUE(back.has_partial);
  EXPECT_EQ(back.partial_point, d.partial_point);
  EXPECT_EQ(back.partial_cursor, d.partial_cursor);
  ASSERT_EQ(back.partial_workers.size(), d.partial_workers.size());
  for (std::size_t w = 0; w < d.partial_workers.size(); ++w) {
    expect_aggregate_identical(back.partial_workers[w].agg,
                               d.partial_workers[w].agg);
    expect_ledgers_identical(back.partial_workers[w].faults,
                             d.partial_workers[w].faults);
  }
  // Fixed point: re-serializing the parsed image reproduces the bytes.
  EXPECT_EQ(serialize_checkpoint(back), text);
}

TEST(CheckpointFormat, EmptyDataRoundTrips) {
  CheckpointData d;
  d.config_hash = 1;
  d.seed = 2;
  d.threads = 1;
  d.trials = 10;
  d.every = 0;
  const CheckpointData back =
      parse_checkpoint(serialize_checkpoint(d), "test");
  EXPECT_TRUE(back.completed.empty());
  EXPECT_FALSE(back.has_partial);
}

TEST(CheckpointFormat, BitFlipAnywhereIsRejected) {
  const fs::path dir = scratch("bitflip");
  const std::string path = (dir / "sweep.ckpt").string();
  const std::string text = serialize_checkpoint(make_data());
  // Flip one bit at several positions spread across the body (header line,
  // hex doubles in the middle, late entries) — every one must be caught by
  // the checksum, not by whichever parse error it happens to cause. The
  // footer itself is skipped: corrupting the recorded checksum digits can
  // surface as a parse error instead, which is also a refusal.
  for (const std::size_t byte :
       {std::size_t{0}, text.size() / 3, text.size() / 2,
        2 * text.size() / 3}) {
    write_file_atomic(path, text);
    chaos::flip_bit(path, byte, 1);
    try {
      parse_checkpoint(read_all(path), path);
      FAIL() << "corruption at byte " << byte << " not rejected";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("refusing to resume"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointFormat, TruncationIsRejected) {
  const fs::path dir = scratch("truncate");
  const std::string path = (dir / "sweep.ckpt").string();
  const std::string text = serialize_checkpoint(make_data());
  for (const std::size_t keep :
       {std::size_t{0}, text.size() / 4, text.size() - 1}) {
    write_file_atomic(path, text);
    chaos::truncate_file(path, keep);
    try {
      parse_checkpoint(read_all(path), path);
      FAIL() << "truncation to " << keep << " bytes not rejected";
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("refusing to resume"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckpointFormat, WrongVersionIsRejectedEvenWithValidChecksum) {
  // A well-formed file from a hypothetical v2 writer: correct checksum,
  // unknown header. Version validation must fire on its own.
  std::string body = "ritcs-checkpoint v2\nconfig 1\n";
  body += "checksum " + format_u64(fnv1a64(body)) + "\n";
  EXPECT_THROW(parse_checkpoint(body, "test"), CheckFailure);
}

TEST(CheckpointFormat, HostileBodiesEndInCheckFailure) {
  // Each probe is re-sealed: the checksum passes, so the structured parse
  // must reject it on its own, and with nothing but CheckFailure.
  const std::string body =
      hostile::without_footer(serialize_checkpoint(make_data()));
  const hostile::Probe probes[] = {
      {"scalar key with no value", "seed", "seed"},
      {"completed count 2^60", "completed", "completed " + hostile::kHugeCount},
      {"faults count 2^60", "faults", "faults " + hostile::kHugeCount},
      {"partial workers 2^60", "partial",
       "partial 2 30 " + hostile::kHugeCount},
      {"threads 2^32", "threads", "threads " + hostile::kU32Overflow},
      {"threads 2^32+1", "threads", "threads " + hostile::kU32Wrap},
  };
  for (const auto& p : probes) {
    const std::string text =
        hostile::with_footer(hostile::replace_key(body, p.key, p.line));
    EXPECT_EQ(hostile::read_outcome([&] {
                parse_checkpoint(text, "test");
                return true;
              }),
              "CheckFailure")
        << p.name;
  }
}

CheckpointSession::Params base_params(const std::string& path) {
  CheckpointSession::Params p;
  p.path = path;
  p.config_hash = 0xabcdefull;
  p.seed = 99;
  p.threads = 2;
  p.trials = 50;
  p.every = 10;
  p.resume = false;
  return p;
}

TEST(CheckpointSession, SaveLoadLifecycle) {
  const fs::path dir = scratch("lifecycle");
  const std::string path = (dir / "sweep.ckpt").string();

  GuardedResult r0{make_agg(3.0), make_ledger(1)};
  {
    CheckpointSession a(base_params(path));
    GuardedResult ignored;
    EXPECT_FALSE(a.completed_point(0, &ignored));
    a.complete_point(0, r0);
    a.save_partial(1, 20,
                   {WorkerCheckpoint{make_agg(4.0), FaultLedger{}},
                    WorkerCheckpoint{make_agg(5.0), make_ledger(21)}});
    EXPECT_EQ(a.checkpoints_written(), 2u);
  }

  CheckpointSession::Params p = base_params(path);
  p.resume = true;
  CheckpointSession b(p);
  GuardedResult got;
  ASSERT_TRUE(b.completed_point(0, &got));
  expect_aggregate_identical(got.metrics, r0.metrics);
  expect_ledgers_identical(got.faults, r0.faults);
  EXPECT_FALSE(b.completed_point(1, &got));

  std::uint64_t cursor = 0;
  std::vector<WorkerCheckpoint> workers;
  ASSERT_TRUE(b.partial_state(1, &cursor, &workers));
  EXPECT_EQ(cursor, 20u);
  ASSERT_EQ(workers.size(), 2u);
  expect_aggregate_identical(workers[1].agg, make_agg(5.0));
  EXPECT_FALSE(b.partial_state(0, &cursor, &workers));
}

TEST(CheckpointSession, EveryBindingMismatchRefusesToResume) {
  const fs::path dir = scratch("bindings");
  const std::string path = (dir / "sweep.ckpt").string();
  {
    CheckpointSession a(base_params(path));
    a.complete_point(0, GuardedResult{make_agg(1.0), FaultLedger{}});
  }

  struct Case {
    const char* name;
    void (*mutate)(CheckpointSession::Params&);
  };
  const Case cases[] = {
      {"config hash", [](CheckpointSession::Params& p) { ++p.config_hash; }},
      {"seed", [](CheckpointSession::Params& p) { ++p.seed; }},
      {"thread count", [](CheckpointSession::Params& p) { ++p.threads; }},
      {"trials per point", [](CheckpointSession::Params& p) { ++p.trials; }},
      {"checkpoint interval",
       [](CheckpointSession::Params& p) { ++p.every; }},
  };
  for (const Case& c : cases) {
    CheckpointSession::Params p = base_params(path);
    p.resume = true;
    c.mutate(p);
    try {
      CheckpointSession bad(p);
      FAIL() << c.name << " mismatch not rejected";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.name), std::string::npos) << what;
      EXPECT_NE(what.find("refusing to resume"), std::string::npos) << what;
    }
  }

  // The exact same bindings, by contrast, load fine.
  CheckpointSession::Params ok = base_params(path);
  ok.resume = true;
  CheckpointSession good(ok);
  GuardedResult got;
  EXPECT_TRUE(good.completed_point(0, &got));
}

TEST(CheckpointSession, CorruptFileRefusesToResume) {
  const fs::path dir = scratch("corrupt_session");
  const std::string path = (dir / "sweep.ckpt").string();
  {
    CheckpointSession a(base_params(path));
    a.complete_point(0, GuardedResult{make_agg(1.0), FaultLedger{}});
  }
  chaos::flip_bit(path, 64, 5);
  CheckpointSession::Params p = base_params(path);
  p.resume = true;
  try {
    CheckpointSession bad(p);
    FAIL() << "corrupt checkpoint not rejected";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("refusing to resume"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(CheckpointSession, WrappedThreadCountDoesNotBindAOneThreadRun) {
  // `threads 2^32+1` once narrowed to 1 and passed a 1-thread binding.
  const fs::path dir = scratch("wrapped_threads");
  const std::string path = (dir / "sweep.ckpt").string();
  CheckpointSession::Params p = base_params(path);
  p.threads = 1;
  {
    CheckpointSession a(p);
    a.complete_point(0, GuardedResult{make_agg(1.0), FaultLedger{}});
  }
  write_file_atomic(
      path, hostile::with_footer(hostile::replace_key(
                hostile::without_footer(read_all(path)), "threads",
                "threads " + hostile::kU32Wrap)));
  p.resume = true;
  EXPECT_EQ(hostile::read_outcome([&] {
              CheckpointSession resumed(p);
              return true;
            }),
            "CheckFailure");
}

TEST(CheckpointSession, ResumeWithNoFileIsAFreshStart) {
  const fs::path dir = scratch("fresh");
  CheckpointSession::Params p = base_params((dir / "none.ckpt").string());
  p.resume = true;
  CheckpointSession s(p);
  GuardedResult got;
  EXPECT_FALSE(s.completed_point(0, &got));
  EXPECT_EQ(s.checkpoints_written(), 0u);
}

TEST(CheckpointSession, NoResumeSupersedesExistingFile) {
  const fs::path dir = scratch("supersede");
  const std::string path = (dir / "sweep.ckpt").string();
  {
    CheckpointSession a(base_params(path));
    a.complete_point(0, GuardedResult{make_agg(1.0), make_ledger(3)});
  }
  // resume=false ignores the file on load and overwrites it on first save.
  CheckpointSession b(base_params(path));
  GuardedResult got;
  EXPECT_FALSE(b.completed_point(0, &got));
  b.complete_point(0, GuardedResult{make_agg(9.0), FaultLedger{}});
  CheckpointSession::Params p = base_params(path);
  p.resume = true;
  CheckpointSession c(p);
  ASSERT_TRUE(c.completed_point(0, &got));
  expect_aggregate_identical(got.metrics, make_agg(9.0));
  EXPECT_TRUE(got.faults.empty());
}

TEST(CheckpointSession, OutOfOrderSavesAreRejected) {
  const fs::path dir = scratch("order");
  CheckpointSession s(base_params((dir / "sweep.ckpt").string()));
  EXPECT_THROW(s.complete_point(1, GuardedResult{}), CheckFailure);
  EXPECT_THROW(s.save_partial(2, 5, {}), CheckFailure);
  s.complete_point(0, GuardedResult{make_agg(1.0), FaultLedger{}});
  EXPECT_THROW(s.complete_point(0, GuardedResult{}), CheckFailure);
}

TEST(CheckpointSession, OpeningRemovesOnlyDeadWritersTemps) {
  // A writer SIGKILLed mid-save leaves `<path>.tmp.<pid>` behind. A pid
  // above Linux's pid_max (4194304) names no process; this test's own pid
  // names a live one, whose temp may be a save in flight.
  const fs::path dir = scratch("stale_temps");
  const std::string path = (dir / "sweep.ckpt").string();
  const fs::path dead = path + ".tmp.4194305";
  const fs::path live =
      path + ".tmp." + format_u64(static_cast<std::uint64_t>(::getpid()));
  const fs::path other = dir / "other.ckpt.tmp.4194305";
  for (const fs::path& temp : {dead, live, other}) {
    std::ofstream(temp) << "half a checkpoint";
  }
  CheckpointSession s(base_params(path));
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(live));
  EXPECT_TRUE(fs::exists(other));  // another path's temps are not its own
}

TEST(CheckpointSession, AfterSaveHookSeesTheRunningWriteCount) {
  const fs::path dir = scratch("after_save");
  CheckpointSession s(base_params((dir / "sweep.ckpt").string()));
  std::vector<std::uint64_t> seen;
  s.set_after_save([&seen](std::uint64_t written) { seen.push_back(written); });
  s.save_partial(0, 1, {});
  s.complete_point(0, GuardedResult{make_agg(1.0), FaultLedger{}});
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
  s.set_after_save(chaos::kill_after_checkpoints(3));
  EXPECT_THROW(s.save_partial(1, 1, {}), chaos::ChaosKill);
  EXPECT_EQ(s.checkpoints_written(), 3u);  // the write landed before the kill
}

}  // namespace
}  // namespace rit::sim
