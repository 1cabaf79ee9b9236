#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>

#include "hostile_input.h"

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/record.h"
#include "core/audit.h"
#include "core/result_io.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "tree/builders.h"

namespace rit::core {
namespace {

ExperimentRecord make_record(std::uint64_t seed) {
  rng::Rng rng(seed);
  const std::uint32_t n = 80;
  ExperimentRecord rec;
  rec.job = Job(std::vector<std::uint32_t>{15, 10});
  for (std::uint32_t j = 0; j < n; ++j) {
    rec.asks.push_back(Ask{
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(2))},
        static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
        rng.uniform_real_left_open(0.0, 10.0)});
  }
  const auto tree = tree::random_recursive_tree(n, 0.2, rng);
  rec.tree_parents = tree.parents();
  RitConfig cfg;
  cfg.round_budget_policy = RoundBudgetPolicy::kRunToCompletion;
  rec.discount_base = cfg.discount_base;
  rng::Rng mech(seed ^ 0xbeef);
  rec.result = run_rit(rec.job, rec.asks, tree, cfg, mech);
  return rec;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/ritcs_result_io_" + name;
}

// The bytes write_record_file writes for `rec`.
std::string record_text(const ExperimentRecord& rec) {
  const std::string path = temp_path("written.rec");
  write_record_file(rec, path);
  const std::optional<std::string> text = slurp_file(path);
  std::remove(path.c_str());
  return text.value();
}

// `text` as read_record_file parses it.
ExperimentRecord parse_record(const std::string& text) {
  const std::string path = temp_path("parsed.rec");
  write_file_atomic(path, text);
  struct Cleanup {
    std::string path;
    ~Cleanup() { std::remove(path.c_str()); }
  } cleanup{path};
  return read_record_file(path);
}

TEST(ResultIo, RoundTripsBitExactly) {
  const ExperimentRecord rec = make_record(1);
  const ExperimentRecord back = parse_record(record_text(rec));

  EXPECT_EQ(back.job.demand_vector(), rec.job.demand_vector());
  ASSERT_EQ(back.asks.size(), rec.asks.size());
  for (std::size_t j = 0; j < rec.asks.size(); ++j) {
    EXPECT_EQ(back.asks[j], rec.asks[j]);  // exact, incl. the double value
  }
  EXPECT_EQ(back.tree_parents, rec.tree_parents);
  EXPECT_EQ(back.discount_base, rec.discount_base);
  EXPECT_EQ(back.result.success, rec.result.success);
  EXPECT_EQ(back.result.allocation, rec.result.allocation);
  EXPECT_EQ(back.result.auction_payment, rec.result.auction_payment);  // bit-exact
  EXPECT_EQ(back.result.payment, rec.result.payment);
  EXPECT_EQ(back.result.eta, rec.result.eta);
  EXPECT_EQ(back.result.k_max, rec.result.k_max);
  EXPECT_EQ(back.result.achieved_probability, rec.result.achieved_probability);
}

TEST(ResultIo, WriteIsDeterministic) {
  const ExperimentRecord rec = make_record(2);
  EXPECT_EQ(record_text(rec), record_text(rec));
}

TEST(ResultIo, LoadedRecordPassesAudit) {
  const ExperimentRecord rec = make_record(3);
  const ExperimentRecord back = parse_record(record_text(rec));
  const AuditReport report = audit_payments(back.tree(), back.asks,
                                            back.result, back.discount_base);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(ResultIo, AuditCatchesTamperedFile) {
  const ExperimentRecord rec = make_record(4);
  // Skim money in the serialized payments line: bump one hex digit.
  std::string text = record_text(rec);
  const auto pos = text.find("\npayment ");
  ASSERT_NE(pos, std::string::npos);
  // Replace the payment line with all-doubled payments.
  std::string doubled = "\npayment";
  for (double p : rec.result.payment) {
    char buf[64];
    // Deliberately the legacy printf-%a writer: this test forges a record
    // in the historical on-disk form to prove the reader still takes it.
    // rit-lint: allow(no-locale-numeric)
    std::snprintf(buf, sizeof(buf), " %a", p * 2 + 1.0);
    doubled += buf;
  }
  doubled += "\n";
  text = text.substr(0, pos) + doubled;
  const ExperimentRecord back = parse_record(text);
  const AuditReport report = audit_payments(back.tree(), back.asks,
                                            back.result, back.discount_base);
  EXPECT_FALSE(report.ok);
}

TEST(ResultIo, RejectsBadHeaderAndTruncation) {
  EXPECT_THROW(parse_record("not-a-record\n"), CheckFailure);

  const std::string full = record_text(make_record(5));
  EXPECT_THROW(parse_record(full.substr(0, full.size() / 2)), CheckFailure);
}

TEST(ResultIo, RejectsInconsistentSizes) {
  EXPECT_THROW(parse_record(
      "ritcs-record v1\n"
      "discount 0x1p-1\n"
      "job 1\n"
      "users 2\n"
      "ask 0 1 0x1p+0\n"
      "ask 0 1 0x1p+0\n"
      "tree 0 0\n"  // should be 3 entries for 2 users
      "success 0\n"),
      CheckFailure);
}

TEST(ResultIo, ZeroUserRecordRoundTrips) {
  ExperimentRecord rec;
  rec.job = Job(std::vector<std::uint32_t>{1});
  rec.tree_parents = {0};  // platform only
  rec.result.success = false;
  const ExperimentRecord back = parse_record(record_text(rec));
  EXPECT_TRUE(back.asks.empty());
  EXPECT_FALSE(back.result.success);
  EXPECT_EQ(back.tree().num_participants(), 0u);
}

TEST(ResultIo, GoldenFormatV1IsStable) {
  // Freeze the v1 wire format: a hand-written record must keep parsing
  // exactly like this forever (bump the header version for any change).
  const std::string golden =
      "ritcs-record v1\n"
      "discount 0x1p-1\n"
      "job 2 1\n"
      "users 2\n"
      "ask 0 2 0x1.8p+1\n"
      "ask 1 1 0x1p+2\n"
      "tree 0 0 1\n"
      "success 1\n"
      "eta 0x1.999999999999ap-1\n"
      "kmax 2\n"
      "degraded 0\n"
      "achieved 0x1.8p-1\n"
      "allocation 2 1\n"
      "auction_payment 0x1.cp+2 0x1.2p+2\n"
      "payment 0x1.cp+2 0x1.cap+2\n";
  const ExperimentRecord rec = parse_record(golden);
  EXPECT_EQ(rec.discount_base, 0.5);
  EXPECT_EQ(rec.job.demand_vector(), (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(rec.asks[0].value, 3.0);
  EXPECT_EQ(rec.asks[1].type, rit::TaskType{1});
  EXPECT_EQ(rec.tree_parents, (std::vector<std::uint32_t>{0, 0, 1}));
  EXPECT_TRUE(rec.result.success);
  EXPECT_EQ(rec.result.allocation, (std::vector<std::uint32_t>{2, 1}));
  EXPECT_EQ(rec.result.auction_payment[0], 7.0);
  EXPECT_EQ(rec.result.k_max, 2u);
  // And writing it back reproduces the same bytes.
  EXPECT_EQ(record_text(rec), golden);
}

TEST(ResultIo, HostileRecordsEndInCheckFailure) {
  const std::string record =
      "ritcs-record v1\n"
      "discount 0x1p-1\n"
      "job 2 1\n"
      "users 2\n"
      "ask 0 2 0x1.8p+1\n"
      "ask 1 1 0x1p+2\n"
      "tree 0 0 1\n"
      "success 1\n"
      "eta 0x1.999999999999ap-1\n"
      "kmax 2\n"
      "degraded 0\n"
      "achieved 0x1.8p-1\n"
      "allocation 2 1\n"
      "auction_payment 0x1.cp+2 0x1.2p+2\n"
      "payment 0x1.cp+2 0x1.cap+2\n";
  const hostile::Probe probes[] = {
      {"scalar key with no value", "success", "success"},
      {"users count 2^60", "users", "users " + hostile::kHugeCount},
      {"tree parent 2^32", "tree", "tree 0 " + hostile::kU32Overflow + " 1"},
      {"demand 2^32+1", "job", "job " + hostile::kU32Wrap + " 1"},
      {"ask type 2^32", "ask", "ask " + hostile::kU32Overflow + " 2 0x1p+0"},
      {"kmax 2^32", "kmax", "kmax " + hostile::kU32Overflow},
  };
  for (const auto& p : probes) {
    const std::string text = hostile::replace_key(record, p.key, p.line);
    EXPECT_EQ(hostile::read_outcome([&] {
                parse_record(text);
                return true;
              }),
              "CheckFailure")
        << p.name;
  }
}

TEST(ResultIo, FileRoundTrip) {
  const ExperimentRecord rec = make_record(6);
  const std::string path = ::testing::TempDir() + "/ritcs_record_test.rec";
  write_record_file(rec, path);
  const ExperimentRecord back = read_record_file(path);
  EXPECT_EQ(back.result.payment, rec.result.payment);
  std::remove(path.c_str());
  EXPECT_THROW(read_record_file("/no/such/record.rec"), CheckFailure);
}

}  // namespace
}  // namespace rit::core
