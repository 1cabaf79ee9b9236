#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "sim/population_io.h"
#include "sim/workload.h"

namespace rit::sim {
namespace {

TEST(PopulationIo, ParsesCsvWithHeaderAndComments) {
  std::istringstream in(
      "type,quantity,cost\n"
      "# a comment\n"
      "0,2,1.5\n"
      "1,1,3.25\n"
      "\n"
      "0 3 0.5  # whitespace form works too\n");
  const Population pop = read_population(in);
  ASSERT_EQ(pop.size(), 3u);
  EXPECT_EQ(pop.truthful_asks[0].type, TaskType{0});
  EXPECT_EQ(pop.truthful_asks[0].quantity, 2u);
  EXPECT_DOUBLE_EQ(pop.truthful_asks[0].value, 1.5);
  EXPECT_DOUBLE_EQ(pop.costs[1], 3.25);
  EXPECT_EQ(pop.truthful_asks[2].quantity, 3u);
}

TEST(PopulationIo, RoundTripsBitExactly) {
  Scenario s;
  s.num_users = 120;
  s.num_types = 4;
  rng::Rng rng(1);
  const Population pop = generate_population(s, rng);
  std::ostringstream out;
  write_population(pop, out);
  std::istringstream in(out.str());
  const Population back = read_population(in);
  ASSERT_EQ(back.size(), pop.size());
  for (std::size_t j = 0; j < pop.size(); ++j) {
    EXPECT_EQ(back.truthful_asks[j], pop.truthful_asks[j]);
    EXPECT_EQ(back.costs[j], pop.costs[j]);  // exact via hex-floats
  }
}

TEST(PopulationIo, RejectsMalformedRows) {
  std::istringstream missing("0,2\n");
  EXPECT_THROW(read_population(missing), CheckFailure);
  std::istringstream trailing("0,2,1.5,extra\n");
  EXPECT_THROW(read_population(trailing), CheckFailure);
  std::istringstream bad_cost("0,2,free\n");
  EXPECT_THROW(read_population(bad_cost), CheckFailure);
  std::istringstream zero_qty("0,0,1.5\n");
  EXPECT_THROW(read_population(zero_qty), CheckFailure);
  std::istringstream empty("# nothing\n");
  EXPECT_THROW(read_population(empty), CheckFailure);
  EXPECT_THROW(read_population_file("/no/such/pop.csv"), CheckFailure);
}


TEST(PopulationIo, FileRoundTripsBitExactly) {
  Scenario s;
  s.num_users = 60;
  s.num_types = 3;
  rng::Rng rng(2);
  const Population pop = generate_population(s, rng);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "ritcs_population.csv")
          .string();
  write_population_file(pop, path);
  const Population back = read_population_file(path);
  std::filesystem::remove(path);
  ASSERT_EQ(back.size(), pop.size());
  for (std::size_t j = 0; j < pop.size(); ++j) {
    EXPECT_EQ(back.truthful_asks[j], pop.truthful_asks[j]);
    EXPECT_EQ(back.costs[j], pop.costs[j]);
  }
}

TEST(PopulationIo, WriteUnderAFileRejected) {
  Scenario s;
  s.num_users = 5;
  rng::Rng rng(3);
  const Population pop = generate_population(s, rng);
  // The parent "directory" is a regular file, so no directory can be made.
  const std::filesystem::path blocker =
      std::filesystem::path(::testing::TempDir()) / "ritcs_population_blocker";
  std::ofstream(blocker) << "not a directory\n";
  EXPECT_THROW(write_population_file(pop, (blocker / "pop.csv").string()),
               CheckFailure);
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace rit::sim
