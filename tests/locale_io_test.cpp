// Locale independence and strict-integer parsing for every format that
// crosses a file boundary.
//
// The first half runs the round-trip suites under a comma-decimal locale
// (de_DE-style): results, configs and populations must serialize and
// parse byte-identically whether the host locale writes "0.5" or "0,5". Containers frequently ship only the C locale, so these
// skip (rather than fail) when no comma-decimal locale is installed — the
// strictness tests in the second half run everywhere.
//
// The second half pins the strtoull bugfix: "-1" historically wrapped to
// 2^64-1 and leading whitespace / '+' / trailing junk parsed silently.
// Every integer that reaches a checkpoint, config or CLI flag now goes
// through rit::parse_u64/parse_u32, which reject all of those.
#include <gtest/gtest.h>

#include <bit>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "common/check.h"
#include "common/format_util.h"
#include "common/num_io.h"
#include "common/record.h"
#include "core/result_io.h"
#include "core/rit.h"
#include "rng/rng.h"
#include "sim/config_io.h"
#include "sim/population_io.h"
#include "tree/builders.h"

namespace rit {
namespace {

// --- Comma-decimal locale matrix -------------------------------------------

/// Switches the global C locale to a comma-decimal one for the test body;
/// restores the original locale afterwards. Skips when none is installed.
class CommaLocaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::setlocale(LC_ALL, nullptr);
    old_locale_ = old == nullptr ? "C" : old;
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
          "es_ES.UTF-8", "it_IT.UTF-8", "pt_BR.UTF-8", "ru_RU.UTF-8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        active_ = name;
        // Only trust the locale if it really uses a comma radix; otherwise
        // the round-trips below would not exercise anything.
        if (std::localeconv()->decimal_point[0] == ',') return;
      }
    }
    std::setlocale(LC_ALL, old_locale_.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }

  void TearDown() override {
    std::setlocale(LC_ALL, old_locale_.c_str());
  }

  std::string old_locale_;
  std::string active_;
};

TEST_F(CommaLocaleTest, NumIoFormatsWithDotRadix) {
  EXPECT_EQ(format_double_fixed(1.5, 2), "1.50");
  EXPECT_EQ(format_double_shortest(0.1), "0.1");
  EXPECT_EQ(format_double_g17(2.5).substr(0, 3), "2.5");
  const double v = 0.1 + 0.2;
  EXPECT_EQ(parse_double(format_hex_double(v)), std::optional<double>(v));
  EXPECT_EQ(parse_double(format_double_g17(v)), std::optional<double>(v));
  EXPECT_EQ(parse_double(format_double_shortest(v)), std::optional<double>(v));
}

TEST_F(CommaLocaleTest, ParseDoubleStillWantsDotNotComma) {
  EXPECT_EQ(parse_double("0.5"), std::optional<double>(0.5));
  EXPECT_FALSE(parse_double("0,5").has_value());
}

TEST_F(CommaLocaleTest, ExperimentRecordRoundTripsBitExactly) {
  rng::Rng rng(11);
  const std::uint32_t n = 60;
  core::ExperimentRecord rec;
  rec.job = core::Job(std::vector<std::uint32_t>{12, 8});
  for (std::uint32_t j = 0; j < n; ++j) {
    rec.asks.push_back(core::Ask{
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(2))},
        static_cast<std::uint32_t>(rng.uniform_int(1, 3)),
        rng.uniform_real_left_open(0.0, 10.0)});
  }
  const auto tree = tree::random_recursive_tree(n, 0.2, rng);
  rec.tree_parents = tree.parents();
  core::RitConfig cfg;
  cfg.round_budget_policy = core::RoundBudgetPolicy::kRunToCompletion;
  rec.discount_base = cfg.discount_base;
  rng::Rng mech(0xbeef);
  rec.result = core::run_rit(rec.job, rec.asks, tree, cfg, mech);

  const std::string path = ::testing::TempDir() + "/ritcs_locale_record.rec";
  core::write_record_file(rec, path);
  EXPECT_EQ(slurp_file(path).value().find(','), std::string::npos)
      << "record leaked a locale radix under " << active_;
  const core::ExperimentRecord back = core::read_record_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.asks.size(), rec.asks.size());
  for (std::size_t j = 0; j < rec.asks.size(); ++j) {
    EXPECT_EQ(back.asks[j], rec.asks[j]);
  }
  EXPECT_EQ(back.result.payment, rec.result.payment);
  EXPECT_EQ(back.discount_base, rec.discount_base);
}

TEST_F(CommaLocaleTest, ScenarioRoundTripsDoubles) {
  sim::Scenario s;
  s.cost_max = 7.25;
  s.mechanism.h = 0.85;
  s.mechanism.discount_base = 0.375;
  s.er_degree = 6.5;
  s.ws_beta = 0.1;
  s.cm_exponent = 2.2;
  std::ostringstream out;
  sim::write_scenario(s, out);
  std::istringstream in(out.str());
  const sim::Scenario back = sim::read_scenario(in);
  EXPECT_EQ(back.cost_max, s.cost_max);
  EXPECT_EQ(back.mechanism.h, s.mechanism.h);
  EXPECT_EQ(back.mechanism.discount_base, s.mechanism.discount_base);
  EXPECT_EQ(back.er_degree, s.er_degree);
  EXPECT_EQ(back.ws_beta, s.ws_beta);
  EXPECT_EQ(back.cm_exponent, s.cm_exponent);
}

TEST_F(CommaLocaleTest, PopulationRoundTripsBitExactly) {
  rng::Rng rng(13);
  sim::Population pop;
  for (std::uint32_t j = 0; j < 50; ++j) {
    const double cost = rng.uniform_real_left_open(0.0, 10.0);
    pop.truthful_asks.push_back(core::Ask{
        TaskType{static_cast<std::uint32_t>(rng.uniform_index(3))},
        static_cast<std::uint32_t>(rng.uniform_int(1, 5)), cost});
    pop.costs.push_back(cost);
  }
  std::ostringstream out;
  sim::write_population(pop, out);
  std::istringstream in(out.str());
  const sim::Population back = sim::read_population(in);
  ASSERT_EQ(back.truthful_asks.size(), pop.truthful_asks.size());
  for (std::size_t j = 0; j < pop.truthful_asks.size(); ++j) {
    EXPECT_EQ(back.truthful_asks[j], pop.truthful_asks[j]);
  }
}

TEST_F(CommaLocaleTest, FormatUtilUsesDotRadix) {
  EXPECT_EQ(format_double(3.25, 2), "3.25");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

// --- Strict integer / double parsing (locale-free) -------------------------

TEST(StrictIntParse, RejectsSignWhitespaceJunkAndOverflow) {
  // The strtoull wraparound bug: "-1" parsed as 18446744073709551615.
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64(" 1").has_value());
  EXPECT_FALSE(parse_u64("1 ").has_value());
  EXPECT_FALSE(parse_u64("\t7").has_value());
  EXPECT_FALSE(parse_u64("12abc").has_value());
  EXPECT_FALSE(parse_u64("0x10").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  // Overflow must be an error, not a saturation.
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::optional<std::uint64_t>(18446744073709551615ULL));
  EXPECT_EQ(parse_u64("0"), std::optional<std::uint64_t>(0));
}

TEST(StrictIntParse, U32RangeChecked) {
  EXPECT_EQ(parse_u32("4294967295"),
            std::optional<std::uint32_t>(4294967295u));
  EXPECT_FALSE(parse_u32("4294967296").has_value());
  EXPECT_FALSE(parse_u32("-1").has_value());
}

TEST(StrictDoubleParse, RejectsWhitespacePlusAndJunk) {
  EXPECT_FALSE(parse_double(" 1.5").has_value());
  EXPECT_FALSE(parse_double("+1.5").has_value());
  EXPECT_FALSE(parse_double("1.5abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("-").has_value());
  EXPECT_EQ(parse_double("-1.5"), std::optional<double>(-1.5));
  EXPECT_EQ(parse_double("1e3"), std::optional<double>(1000.0));
  // Hex floats, with the printf-%a prefix and the bare to_chars form.
  EXPECT_EQ(parse_double("0x1.8p+1"), std::optional<double>(3.0));
  EXPECT_EQ(parse_double("-0x1.8p+1"), std::optional<double>(-3.0));
}

TEST(StrictIntParse, CliArgsRejectNegativeUnsigned) {
  const char* argv[] = {"bench", "--trials=-1"};
  cli::Args args(2, argv);
  EXPECT_THROW(args.get_u64("trials", 3), CheckFailure);
}

TEST(StrictIntParse, CliArgsRejectOverflowUnsigned) {
  const char* argv[] = {"bench", "--seed=18446744073709551616"};
  cli::Args args(2, argv);
  EXPECT_THROW(args.get_u64("seed", 42), CheckFailure);
}

TEST(StrictIntParse, ScenarioConfigRejectsNegativeCount) {
  std::istringstream in("users = -1\n");
  EXPECT_THROW(sim::read_scenario(in), CheckFailure);
}

TEST(StrictIntParse, ScenarioConfigRejectsTrailingJunk) {
  std::istringstream in("seed = 12q\n");
  EXPECT_THROW(sim::read_scenario(in), CheckFailure);
}


// --- Locale-free formatting round trips (any host locale) -------------------

TEST(NumIoFormat, UnsignedIntegersRoundTripThroughTheStrictParser) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{4294967295u},
        std::uint64_t{18446744073709551615ULL}}) {
    EXPECT_EQ(parse_u64(format_u64(v)), std::optional<std::uint64_t>(v));
  }
  EXPECT_EQ(format_u64(1234567), "1234567");
}

TEST(NumIoFormat, SignedIntegersCoverSignAndExtremes) {
  EXPECT_EQ(format_i64(0), "0");
  EXPECT_EQ(format_i64(-1), "-1");
  EXPECT_EQ(format_i64(std::numeric_limits<std::int64_t>::max()),
            "9223372036854775807");
  EXPECT_EQ(format_i64(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
}

TEST(NumIoFormat, HexDoubleRoundTripsBitExactly) {
  for (const double v :
       {0.1, -3.0, 1.0 / 3.0, -0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::lowest() / 3.0}) {
    const std::string text = format_hex_double(v);
    SCOPED_TRACE(text);
    const std::optional<double> back = parse_double(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(format_hex_double(3.0), "0x1.8p+1");
  EXPECT_EQ(format_hex_double(-0.0), "-0x0p+0");
  EXPECT_EQ(format_hex_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_hex_double(-std::numeric_limits<double>::infinity()),
            "-inf");
}

TEST(NumIoFormat, ShortestAndG17RoundTrip) {
  EXPECT_EQ(format_double_shortest(0.1), "0.1");
  EXPECT_EQ(format_double_g17(0.1), "0.10000000000000001");
  for (const double v : {0.1, 2.0 / 3.0, -1e-300, 6.02214076e23, 12345.0}) {
    EXPECT_EQ(parse_double(format_double_shortest(v)),
              std::optional<double>(v));
    EXPECT_EQ(parse_double(format_double_g17(v)), std::optional<double>(v));
  }
}

TEST(NumIoFormat, FixedMatchesPrintfStyleEvenPastTheStackBuffer) {
  EXPECT_EQ(format_double_fixed(3.14159, 3), "3.142");
  EXPECT_EQ(format_double_fixed(2.5, 2), "2.50");
  EXPECT_EQ(format_double_fixed(-1.0, 0), "-1");
  // DBL_MAX has 309 integer digits; at 400 decimals the text outgrows the
  // 512-byte stack buffer and takes the heap retry.
  const std::string big =
      format_double_fixed(std::numeric_limits<double>::max(), 400);
  EXPECT_EQ(big.size(), 309u + 1u + 400u);
  EXPECT_EQ(big.substr(0, 6), "179769");
  EXPECT_EQ(big.substr(309), "." + std::string(400, '0'));
}

TEST(StrictDoubleParse, AcceptsInfAndNanRejectsOutOfRange) {
  EXPECT_EQ(parse_double("inf"),
            std::optional<double>(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(parse_double("-inf"),
            std::optional<double>(-std::numeric_limits<double>::infinity()));
  const std::optional<double> nan = parse_double("nan");
  ASSERT_TRUE(nan.has_value());
  EXPECT_TRUE(std::isnan(*nan));
  EXPECT_FALSE(parse_double("1e400").has_value());
  EXPECT_FALSE(parse_double("0x").has_value());
  EXPECT_FALSE(parse_double("0xg").has_value());
}

}  // namespace
}  // namespace rit
