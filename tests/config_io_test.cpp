#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "sim/config_io.h"

namespace rit::sim {
namespace {

TEST(ConfigIo, ParsesAllKeys) {
  std::istringstream in(
      "# comment line\n"
      "users = 1234\n"
      "types = 7\n"
      "tasks_per_type = 99\n"
      "demand_lo = 10\n"
      "demand_hi = 20\n"
      "k_max = 13\n"
      "cost_max = 5.5\n"
      "h = 0.9   # trailing comment\n"
      "discount_base = 0.4\n"
      "policy = theoretical\n"
      "graph = ws\n"
      "ba_edges = 4\n"
      "er_degree = 8.5\n"
      "ws_k = 10\n"
      "ws_beta = 0.25\n"
      "cm_exponent = 2.3\n"
      "cm_max_degree = 77\n"
      "initial_joiners = 3\n"
      "seed = 777\n");
  const Scenario s = read_scenario(in);
  EXPECT_EQ(s.num_users, 1234u);
  EXPECT_EQ(s.num_types, 7u);
  EXPECT_EQ(s.tasks_per_type, 99u);
  EXPECT_EQ(s.demand_lo, 10u);
  EXPECT_EQ(s.demand_hi, 20u);
  EXPECT_EQ(s.k_max, 13u);
  EXPECT_DOUBLE_EQ(s.cost_max, 5.5);
  EXPECT_DOUBLE_EQ(s.mechanism.h, 0.9);
  EXPECT_DOUBLE_EQ(s.mechanism.discount_base, 0.4);
  EXPECT_EQ(s.mechanism.round_budget_policy,
            core::RoundBudgetPolicy::kTheoretical);
  EXPECT_EQ(s.graph, GraphKind::kWattsStrogatz);
  EXPECT_EQ(s.ba_edges_per_node, 4u);
  EXPECT_DOUBLE_EQ(s.er_degree, 8.5);
  EXPECT_EQ(s.ws_k, 10u);
  EXPECT_DOUBLE_EQ(s.ws_beta, 0.25);
  EXPECT_DOUBLE_EQ(s.cm_exponent, 2.3);
  EXPECT_EQ(s.cm_max_degree, 77u);
  EXPECT_EQ(s.initial_joiners, 3u);
  EXPECT_EQ(s.seed, 777u);
}

TEST(ConfigIo, DefaultsSurviveEmptyConfig) {
  std::istringstream in("\n# nothing here\n\n");
  const Scenario s = read_scenario(in);
  const Scenario defaults;
  EXPECT_EQ(s.num_users, defaults.num_users);
  EXPECT_EQ(s.mechanism.round_budget_policy,
            defaults.mechanism.round_budget_policy);
}

TEST(ConfigIo, RoundTrips) {
  Scenario s;
  s.num_users = 4321;
  s.graph = GraphKind::kErdosRenyi;
  s.mechanism.h = 0.77;
  s.mechanism.round_budget_policy = core::RoundBudgetPolicy::kTheoretical;
  s.seed = 99;
  std::ostringstream out;
  write_scenario(s, out);
  std::istringstream in(out.str());
  const Scenario back = read_scenario(in);
  EXPECT_EQ(back.num_users, s.num_users);
  EXPECT_EQ(back.graph, s.graph);
  EXPECT_DOUBLE_EQ(back.mechanism.h, s.mechanism.h);
  EXPECT_EQ(back.mechanism.round_budget_policy,
            s.mechanism.round_budget_policy);
  EXPECT_EQ(back.seed, s.seed);
}

TEST(ConfigIo, RejectsUnknownKey) {
  std::istringstream in("userz = 10\n");
  EXPECT_THROW(read_scenario(in), CheckFailure);
}

TEST(ConfigIo, RejectsMalformedLine) {
  std::istringstream in("users 10\n");
  EXPECT_THROW(read_scenario(in), CheckFailure);
}

TEST(ConfigIo, RejectsBadValues) {
  std::istringstream a("users = ten\n");
  EXPECT_THROW(read_scenario(a), CheckFailure);
  std::istringstream b("h = high\n");
  EXPECT_THROW(read_scenario(b), CheckFailure);
  std::istringstream c("policy = maybe\n");
  EXPECT_THROW(read_scenario(c), CheckFailure);
  std::istringstream d("graph = tree\n");
  EXPECT_THROW(read_scenario(d), CheckFailure);
}

TEST(ConfigIo, RejectsU32KeysPast32Bits) {
  // 2^32 + 100 once narrowed to 100 users; every u32 key is width-checked.
  for (const char* key :
       {"users", "types", "tasks_per_type", "demand_lo", "demand_hi", "k_max",
        "ba_edges", "ws_k", "cm_max_degree", "initial_joiners"}) {
    std::istringstream in(std::string(key) + " = 4294967396\n");
    try {
      read_scenario(in);
      ADD_FAILURE() << key << " accepted 4294967396";
    } catch (const CheckFailure& e) {
      EXPECT_EQ(std::string(e.what()),
                "config key '" + std::string(key) +
                    "' wants at most 4294967295, got 4294967396");
    }
  }
  std::istringstream max("users = 4294967295\n");
  EXPECT_EQ(read_scenario(max).num_users, 4294967295u);
}

TEST(ConfigIo, ShippedConfigsAllParse) {
  // The configs/ directory is part of the public interface; every file in
  // it must parse against the current schema.
  const std::vector<std::string> shipped{
      "paper_fig6_8_users.conf", "paper_fig9.conf", "smoke.conf",
      "theoretical_budget.conf", "twitter_like.conf"};
  for (const auto& name : shipped) {
    const std::string path =
        std::string(RITCS_SOURCE_DIR) + "/configs/" + name;
    EXPECT_NO_THROW({
      const Scenario s = read_scenario_file(path);
      EXPECT_GE(s.num_users, 100u);
    }) << path;
  }
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(read_scenario_file("/no/such/scenario.conf"), CheckFailure);
}

}  // namespace
}  // namespace rit::sim
