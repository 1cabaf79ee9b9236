// Architecture-aware layer of the rit_lint engine: builds the #include
// dependency graph over the scan set and enforces the declared module
// layering DAG.
//
// The declared tiers, bottom-up (a module may include its own tier or any
// tier below; see docs/static_analysis.md for the diagram):
//
//   tier 0: common, rng
//   tier 1: graph, tree
//   tier 2: core, stats
//   tier 3: sim, obs
//   tier 4: attack, baselines, platform
//   tier 5: cli, bench, testkit, tests, tools, examples
//
// Two declared instrumentation edges cut across the tiers: tree -> obs and
// core -> obs. obs depends only on common/stats (tiers <= 2), so the
// edges keep the graph acyclic; they are data here (kLayeringExceptions),
// not holes in the rule.
//
// Rules implemented on the graph:
//   layer-violation  an include whose target module sits in a higher tier
//   include-cycle    a strongly connected component in the file graph
//   unused-include   IWYU-lite: a .cpp includes a repo header none of
//                    whose exported names it mentions
#pragma once

#include <string>
#include <vector>

#include "scanner.h"

namespace rit::lint::internal {

/// Module name for a repo-relative path: "src/core/rit.h" -> "core",
/// "bench/bench_scale.cpp" -> "bench", "tests/..." -> "tests". Empty when
/// the path belongs to no known module (e.g. configs/).
std::string module_of(const std::string& path);

/// Declared tier of a module, -1 when unknown.
int layer_of(const std::string& module);

/// True for the declared cross-tier instrumentation edges (tree -> obs,
/// core -> obs).
bool layering_exception(const std::string& from, const std::string& to);

/// Module named by an include target: "core/rit.h" -> "core" when the
/// first path segment is a known src/ module, else empty ("gtest/gtest.h",
/// same-directory includes like "linter.h").
std::string include_target_module(const std::string& target);

/// The resolved file-level include graph. Nodes are scan-set files;
/// edges[i] holds (line, to_index) for every include of file i that
/// resolved to another scan-set file. Deterministic: nodes keep scan-set
/// order, edges keep directive order.
struct IncludeGraph {
  std::vector<const Prepped*> files;
  std::vector<std::vector<std::pair<std::size_t, int>>> edges;
};

IncludeGraph build_include_graph(const std::vector<Prepped>& prepped);

/// Strongly connected components with more than one file, plus self-loops,
/// as sorted lists of node indices; deterministically ordered by smallest
/// member path.
std::vector<std::vector<int>> include_cycles(const IncludeGraph& graph);

void run_layering_rule(const std::vector<Prepped>& prepped,
                       std::vector<Finding>* out);

void run_include_cycle_rule(const IncludeGraph& graph,
                            std::vector<Finding>* out);

void run_unused_include_rule(const IncludeGraph& graph,
                             std::vector<Finding>* out);

}  // namespace rit::lint::internal
