#include "sim/scenario.h"

#include "common/check.h"
#include "rng/splitmix64.h"

namespace rit::sim {

GraphKind parse_graph_kind(const std::string& name) {
  if (name == "ba") return GraphKind::kBarabasiAlbert;
  if (name == "er") return GraphKind::kErdosRenyi;
  if (name == "ws") return GraphKind::kWattsStrogatz;
  if (name == "cm") return GraphKind::kConfigurationModel;
  if (name == "star") return GraphKind::kStar;
  if (name == "path") return GraphKind::kPath;
  require_usage(false, "unknown graph kind '" + name +
                           "' (want ba|er|ws|cm|star|path)");
  return GraphKind::kBarabasiAlbert;  // unreachable
}

std::string to_string(GraphKind kind) {
  switch (kind) {
    case GraphKind::kBarabasiAlbert:
      return "ba";
    case GraphKind::kErdosRenyi:
      return "er";
    case GraphKind::kWattsStrogatz:
      return "ws";
    case GraphKind::kConfigurationModel:
      return "cm";
    case GraphKind::kStar:
      return "star";
    case GraphKind::kPath:
      return "path";
  }
  return "?";
}

std::uint64_t Scenario::trial_seed(std::uint64_t trial,
                                   std::uint64_t component) const {
  // Mix (seed, trial, component) through SplitMix64 so neighbouring trials
  // and components get unrelated streams.
  rng::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
  std::uint64_t s = sm.next();
  rng::SplitMix64 sm2(s ^ (0xc2b2ae3d27d4eb4fULL * (component + 1)));
  return sm2.next();
}

}  // namespace rit::sim
