#include "graph/edge_list_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/num_io.h"

namespace rit::graph {

Graph read_edge_list(std::istream& in) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream ls(line);
    std::string tok[3];
    if (!(ls >> tok[0])) continue;  // blank / comment-only line
    RIT_CHECK_MSG(static_cast<bool>(ls >> tok[1]),
                  "edge list line " << line_no << ": missing target id");
    RIT_CHECK_MSG(!(ls >> tok[2]),
                  "edge list line " << line_no << ": trailing tokens");
    // Strict decimal: no sign, prefix, fraction or wrap past 2^64-1.
    const auto from = parse_u64(tok[0]);
    const auto to = parse_u64(tok[1]);
    RIT_CHECK_MSG(from && to, "edge list line " << line_no << ": node id '"
                                                << (from ? tok[1] : tok[0])
                                                << "' is not in [0, 2^64-1]");
    if (*from == *to) continue;  // drop self-loops silently, as SNAP tools do
    raw.emplace_back(*from, *to);
  }

  // Dense remap, ordered by original id for determinism.
  std::vector<std::uint64_t> ids;
  ids.reserve(raw.size() * 2);
  for (auto& [f, t] : raw) {
    ids.push_back(f);
    ids.push_back(t);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  RIT_CHECK_MSG(ids.size() <= std::numeric_limits<std::uint32_t>::max(),
                "edge list has " << ids.size()
                                 << " distinct node ids; at most 2^32-1 fit");
  std::unordered_map<std::uint64_t, std::uint32_t> remap;
  remap.reserve(ids.size());
  for (std::uint32_t i = 0; i < ids.size(); ++i) remap[ids[i]] = i;

  std::vector<Edge> edges;
  edges.reserve(raw.size());
  for (auto& [f, t] : raw) edges.push_back({remap[f], remap[t]});
  return Graph(static_cast<std::uint32_t>(ids.size()), std::move(edges));
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  RIT_CHECK_MSG(in.good(), "cannot open edge list file: " << path);
  return read_edge_list(in);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# ritcs edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (const Edge& e : g.edges()) out << e.from << ' ' << e.to << '\n';
}

}  // namespace rit::graph
