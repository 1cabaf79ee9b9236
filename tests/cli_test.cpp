#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.h"
#include "cli/csv.h"
#include "cli/table.h"
#include "common/check.h"

namespace rit::cli {
namespace {

Args make_args(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, TypedGettersWithDefaults) {
  Args args = make_args({"--trials=7", "--h=0.9", "--graph=er", "--full"});
  EXPECT_EQ(args.get_u64("trials", 1), 7u);
  EXPECT_DOUBLE_EQ(args.get_double("h", 0.5), 0.9);
  EXPECT_EQ(args.get_string("graph", "ba"), "er");
  EXPECT_TRUE(args.get_bool("full", false));
  EXPECT_EQ(args.get_u64("missing", 42), 42u);
  EXPECT_NO_THROW(args.finish());
}

TEST(Args, BooleanSpellings) {
  Args args = make_args({"--a=true", "--b=0", "--c=yes", "--d=false"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Args, MalformedValuesThrow) {
  Args a = make_args({"--n=abc"});
  EXPECT_THROW(a.get_u64("n", 0), CheckFailure);
  Args b = make_args({"--x=1.2.3"});
  EXPECT_THROW(b.get_double("x", 0.0), CheckFailure);
  Args c = make_args({"--flag=maybe"});
  EXPECT_THROW(c.get_bool("flag", false), CheckFailure);
}

TEST(Args, ValueErrorsNameTheFlagOnly) {
  // A usage error carries its message alone, with no check site.
  Args args = make_args({"--trials=abc"});
  try {
    args.get_u64("trials", 1);
    ADD_FAILURE() << "no throw";
  } catch (const CheckFailure& e) {
    EXPECT_STREQ(e.what(), "flag --trials wants an unsigned integer, got 'abc'");
  }
}

TEST(Args, NonFlagArgumentRejected) {
  std::vector<const char*> argv{"prog", "positional"};
  EXPECT_THROW(Args(2, argv.data()), CheckFailure);
}

TEST(Args, FinishFlagsTypos) {
  Args args = make_args({"--trails=7"});  // typo for --trials
  args.get_u64("trials", 1);
  EXPECT_THROW(args.finish(), CheckFailure);
}

TEST(Table, AlignsColumnsAndUnderlinesHeader) {
  Table t({"n", "value"});
  t.add_row({"10", "1.5"});
  t.add_row({"10000", "2.25"});
  const std::string r = t.render();
  std::istringstream lines(r);
  std::string header;
  std::string rule;
  std::string row1;
  std::string row2;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, row1);
  std::getline(lines, row2);
  EXPECT_NE(header.find("n"), std::string::npos);
  EXPECT_NE(header.find("value"), std::string::npos);
  EXPECT_EQ(rule.find_first_not_of('-'), std::string::npos);
  EXPECT_EQ(row1.size(), row2.size());  // aligned
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, NumericRowFormatting) {
  Table t({"a", "b"});
  t.add_numeric_row({1.23456, 2.0}, 2);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
  EXPECT_NE(t.render().find("2.00"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Csv, WritesHeaderRowsAndEscapes) {
  const std::string path = ::testing::TempDir() + "/ritcs_cli_test.csv";
  {
    CsvWriter w(path, {"x", "label"});
    w.add_row({"1", "plain"});
    w.add_row({"2", "has,comma"});
    w.add_row({"3", "has\"quote"});
    w.add_numeric_row({4.0, 0.5}, 1);
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("x,label\n"), std::string::npos);
  EXPECT_NE(all.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(all.find("\"has\"\"quote\""), std::string::npos);
  EXPECT_NE(all.find("4.0,0.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, QuoteEscapesAllMetacharacters) {
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote(""), "");
  EXPECT_EQ(csv_quote("has,comma"), "\"has,comma\"");
  EXPECT_EQ(csv_quote("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(csv_quote("two\nlines"), "\"two\nlines\"");
  // A lone '\r' with no '\n' is the classic gap: RFC 4180 separates rows
  // with CRLF, so an unquoted bare carriage return splits the row.
  EXPECT_EQ(csv_quote("bare\rreturn"), "\"bare\rreturn\"");
  EXPECT_EQ(csv_quote("\r"), "\"\r\"");
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/ritcs_cli_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.add_row({"1"}), CheckFailure);
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathThrowsOnClose) {
  // A path whose "directory" is a regular file can never be created, even
  // by root. Rows buffer fine; the atomic commit in close() must throw.
  const std::string blocker = ::testing::TempDir() + "/ritcs_cli_blocker";
  std::filesystem::remove_all(blocker);  // clear any stale leftover
  { std::ofstream out(blocker); }
  CsvWriter w(blocker + "/x.csv", {"a"});
  w.add_row({"1"});
  EXPECT_THROW(w.close(), CheckFailure);
  std::remove(blocker.c_str());
}

TEST(Csv, CloseIsIdempotentAndRejectsLateRows) {
  const std::string path = ::testing::TempDir() + "/ritcs_cli_test3.csv";
  CsvWriter w(path, {"a"});
  w.add_row({"1"});
  w.close();
  w.close();  // no-op
  EXPECT_THROW(w.add_row({"2"}), CheckFailure);
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(all, "a\n1\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rit::cli
