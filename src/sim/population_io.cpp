#include "sim/population_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/num_io.h"

namespace rit::sim {

Population read_population(std::istream& in) {
  Population pop;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    // Commas become spaces; then whitespace-tokenize.
    for (char& ch : line) {
      if (ch == ',') ch = ' ';
    }
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) continue;  // blank line
    if (first == "type") continue;  // header row
    const auto type = rit::parse_u32(first);
    RIT_CHECK_MSG(type.has_value(), "population line " << line_no
                                                       << ": bad type '"
                                                       << first << "'");
    std::string qty_tok;
    std::string cost_tok;
    RIT_CHECK_MSG(static_cast<bool>(ls >> qty_tok >> cost_tok),
                  "population line " << line_no
                                     << ": want 'type quantity cost'");
    std::string trailing;
    RIT_CHECK_MSG(!(ls >> trailing),
                  "population line " << line_no << ": trailing tokens");
    const auto quantity = rit::parse_u32(qty_tok);
    RIT_CHECK_MSG(quantity.has_value(), "population line " << line_no
                                                           << ": bad quantity '"
                                                           << qty_tok << "'");
    const auto cost = rit::parse_double(cost_tok);
    RIT_CHECK_MSG(cost.has_value(), "population line " << line_no
                                                       << ": bad cost '"
                                                       << cost_tok << "'");
    // The mechanism's own bounds (core::validate_asks), checked here so
    // the error names the line.
    RIT_CHECK_MSG(*quantity >= 1 && *quantity <= core::kMaxAskQuantity,
                  "population line " << line_no << ": quantity " << *quantity
                                     << " outside [1, "
                                     << core::kMaxAskQuantity << "]");
    RIT_CHECK_MSG(std::isfinite(*cost) && *cost > 0.0,
                  "population line " << line_no << ": cost '" << cost_tok
                                     << "' is not finite and > 0");
    pop.truthful_asks.push_back(core::Ask{TaskType{*type}, *quantity, *cost});
    pop.costs.push_back(*cost);
  }
  RIT_CHECK_MSG(pop.size() > 0, "population file contained no users");
  return pop;
}

Population read_population_file(const std::string& path) {
  std::ifstream in(path);
  RIT_CHECK_MSG(in.good(), "cannot open population file: " << path);
  return read_population(in);
}

void write_population(const Population& population, std::ostream& out) {
  out << "type,quantity,cost\n";
  for (std::size_t j = 0; j < population.size(); ++j) {
    const core::Ask& a = population.truthful_asks[j];
    out << a.type.value << ',' << a.quantity << ','
        << rit::format_hex_double(population.costs[j]) << '\n';
  }
}

void write_population_file(const Population& population,
                           const std::string& path) {
  std::ostringstream out;
  write_population(population, out);
  rit::write_file_atomic(path, out.str());
}

}  // namespace rit::sim
