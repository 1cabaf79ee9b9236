#include "sim/config_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/num_io.h"

namespace rit::sim {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const auto v = rit::parse_u64(value);
  RIT_CHECK_MSG(v.has_value(), "config key '" << key
                                              << "' wants an unsigned integer, "
                                                 "got '"
                                              << value << "'");
  return *v;
}

// A u32 key is refused past 2^32-1, never narrowed.
std::uint32_t parse_u32(const std::string& key, const std::string& value) {
  const std::uint64_t v = parse_u64(key, value);
  require_usage(v <= std::numeric_limits<std::uint32_t>::max(),
                "config key '" + key + "' wants at most 4294967295, got " +
                    value);
  return static_cast<std::uint32_t>(v);
}

double parse_double(const std::string& key, const std::string& value) {
  const auto v = rit::parse_double(value);
  RIT_CHECK_MSG(v.has_value(), "config key '" << key << "' wants a number, got '"
                                              << value << "'");
  return *v;
}
}  // namespace

Scenario read_scenario(std::istream& in) {
  Scenario s;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    RIT_CHECK_MSG(eq != std::string::npos,
                  "config line " << line_no << ": expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    if (key == "users") {
      s.num_users = parse_u32(key, value);
    } else if (key == "types") {
      s.num_types = parse_u32(key, value);
    } else if (key == "tasks_per_type") {
      s.tasks_per_type = parse_u32(key, value);
    } else if (key == "demand_lo") {
      s.demand_lo = parse_u32(key, value);
    } else if (key == "demand_hi") {
      s.demand_hi = parse_u32(key, value);
    } else if (key == "k_max") {
      s.k_max = parse_u32(key, value);
    } else if (key == "cost_max") {
      s.cost_max = parse_double(key, value);
    } else if (key == "h") {
      s.mechanism.h = parse_double(key, value);
    } else if (key == "discount_base") {
      s.mechanism.discount_base = parse_double(key, value);
    } else if (key == "policy") {
      if (value == "theoretical") {
        s.mechanism.round_budget_policy = core::RoundBudgetPolicy::kTheoretical;
      } else if (value == "completion") {
        s.mechanism.round_budget_policy =
            core::RoundBudgetPolicy::kRunToCompletion;
      } else {
        RIT_CHECK_MSG(false, "config key 'policy' wants theoretical|completion, got '"
                                 << value << "'");
      }
    } else if (key == "graph") {
      s.graph = parse_graph_kind(value);
    } else if (key == "ba_edges") {
      s.ba_edges_per_node = parse_u32(key, value);
    } else if (key == "er_degree") {
      s.er_degree = parse_double(key, value);
    } else if (key == "ws_k") {
      s.ws_k = parse_u32(key, value);
    } else if (key == "ws_beta") {
      s.ws_beta = parse_double(key, value);
    } else if (key == "cm_exponent") {
      s.cm_exponent = parse_double(key, value);
    } else if (key == "cm_max_degree") {
      s.cm_max_degree = parse_u32(key, value);
    } else if (key == "initial_joiners") {
      s.initial_joiners = parse_u32(key, value);
    } else if (key == "seed") {
      s.seed = parse_u64(key, value);
    } else {
      RIT_CHECK_MSG(false, "config line " << line_no << ": unknown key '"
                                          << key << "'");
    }
  }
  return s;
}

Scenario read_scenario_file(const std::string& path) {
  std::ifstream in(path);
  RIT_CHECK_MSG(in.good(), "cannot open scenario file: " << path);
  return read_scenario(in);
}

void write_scenario(const Scenario& s, std::ostream& out) {
  out << "# ritcs scenario\n";
  out << "users = " << s.num_users << "\n";
  out << "types = " << s.num_types << "\n";
  out << "tasks_per_type = " << s.tasks_per_type << "\n";
  out << "demand_lo = " << s.demand_lo << "\n";
  out << "demand_hi = " << s.demand_hi << "\n";
  out << "k_max = " << s.k_max << "\n";
  out << "cost_max = " << format_double_shortest(s.cost_max) << "\n";
  out << "h = " << format_double_shortest(s.mechanism.h) << "\n";
  out << "discount_base = " << format_double_shortest(s.mechanism.discount_base)
      << "\n";
  out << "policy = "
      << (s.mechanism.round_budget_policy ==
                  core::RoundBudgetPolicy::kTheoretical
              ? "theoretical"
              : "completion")
      << "\n";
  out << "graph = " << to_string(s.graph) << "\n";
  out << "ba_edges = " << s.ba_edges_per_node << "\n";
  out << "er_degree = " << format_double_shortest(s.er_degree) << "\n";
  out << "ws_k = " << s.ws_k << "\n";
  out << "ws_beta = " << format_double_shortest(s.ws_beta) << "\n";
  out << "cm_exponent = " << format_double_shortest(s.cm_exponent) << "\n";
  out << "cm_max_degree = " << s.cm_max_degree << "\n";
  out << "initial_joiners = " << s.initial_joiners << "\n";
  out << "seed = " << s.seed << "\n";
}

}  // namespace rit::sim
