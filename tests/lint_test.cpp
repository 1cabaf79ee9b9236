// Self-tests for the rit_lint engine (ctest -L lint).
//
// Every rule is exercised twice from fixtures under tests/lint_fixtures/:
// a *_bad file that must produce findings for exactly that rule, and a
// *_allowed file — the same violation plus a `// rit-lint: allow(...)`
// directive — that must scan clean. On top of the fixtures, the engine's
// lexical machinery (comment/string stripping, word boundaries, cross-file
// pairing) is pinned down directly so a refactor cannot quietly widen or
// narrow a rule.
#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "include_graph.h"
#include "linter.h"
#include "output.h"
#include "scanner.h"

namespace {

using rit::lint::Finding;
using rit::lint::SourceFile;

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(RITCS_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct FixtureCase {
  const char* rule;
  const char* bad;
  const char* allowed;
  const char* as_path;  // path the fixture pretends to live at
  // Optional second file scanned alongside (cross-file rules: the
  // unused-include heuristic needs the included header in the scan set).
  const char* companion{nullptr};
  const char* companion_path{nullptr};
};

// Scans a fixture under a repo-plausible path (some rules are scoped to
// src/-relative locations or result-path files), with the case's
// companion file, if any, in the same scan set.
std::vector<Finding> scan_fixture(const std::string& name,
                                  const FixtureCase& fc) {
  std::vector<SourceFile> files;
  if (fc.companion != nullptr) {
    files.push_back(SourceFile{fc.companion_path, read_fixture(fc.companion)});
  }
  files.push_back(SourceFile{fc.as_path, read_fixture(name)});
  return rit::lint::scan(files);
}

const FixtureCase kFixtures[] = {
    {"no-std-rand", "no_std_rand_bad.cpp", "no_std_rand_allowed.cpp",
     "src/sim/scratch.cpp"},
    {"no-random-device", "no_random_device_bad.cpp",
     "no_random_device_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-std-distribution", "no_std_distribution_bad.cpp",
     "no_std_distribution_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-std-engine", "no_std_engine_bad.cpp", "no_std_engine_allowed.cpp",
     "src/sim/scratch.cpp"},
    {"no-std-shuffle", "no_std_shuffle_bad.cpp",
     "no_std_shuffle_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-wallclock-in-results", "no_wallclock_in_results_bad.cpp",
     "no_wallclock_in_results_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-locale-numeric", "no_locale_numeric_bad.cpp",
     "no_locale_numeric_allowed.cpp", "src/core/result_io_scratch.cpp"},
    {"no-fast-math", "no_fast_math_bad.cmake", "no_fast_math_allowed.cmake",
     "src/CMakeLists.txt"},
    {"no-long-double", "no_long_double_bad.cpp",
     "no_long_double_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-raw-process-api", "no_raw_process_api_bad.cpp",
     "no_raw_process_api_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-unordered-iteration-in-results",
     "no_unordered_iteration_in_results_bad.cpp",
     "no_unordered_iteration_in_results_allowed.cpp",
     "src/sim/scratch.cpp"},
    {"merge-coverage-guard", "merge_coverage_guard_bad.cpp",
     "merge_coverage_guard_allowed.cpp", "src/sim/scratch.cpp"},
    {"no-bare-catch-all", "no_bare_catch_all_bad.cpp",
     "no_bare_catch_all_allowed.cpp", "src/sim/scratch.cpp"},
    {"boundary-io-num-io", "boundary_io_num_io_bad.cpp",
     "boundary_io_num_io_allowed.cpp", "src/core/result_io_scratch.cpp"},
    {"layer-violation", "layer_violation_bad.cpp",
     "layer_violation_allowed.cpp", "src/core/scratch.cpp"},
    {"layer-violation", "layer_violation_testkit_bad.cpp",
     "layer_violation_testkit_allowed.cpp", "src/platform/scratch.cpp"},
    {"include-cycle", "include_cycle_bad.h", "include_cycle_allowed.h",
     "src/core/cycle_scratch.h"},
    {"unused-include", "unused_include_bad.cpp",
     "unused_include_allowed.cpp", "src/sim/scratch_unused.cpp",
     "unused_include_helper.h", "src/common/scratch_helper.h"},
    {"testkit-only-injection", "testkit_only_injection_bad.cpp",
     "testkit_only_injection_allowed.cpp", "src/sim/scratch.cpp"},
};

TEST(LintFixtures, EveryRuleHasABadFixtureThatFires) {
  for (const FixtureCase& fc : kFixtures) {
    SCOPED_TRACE(fc.bad);
    const std::vector<Finding> findings = scan_fixture(fc.bad, fc);
    ASSERT_FALSE(findings.empty())
        << "bad fixture produced no findings for rule " << fc.rule;
    for (const Finding& f : findings) {
      EXPECT_EQ(f.rule, fc.rule);
      EXPECT_GT(f.line, 0u);
    }
  }
}

TEST(LintFixtures, EveryRuleHasAnAllowlistedFixtureThatIsClean) {
  for (const FixtureCase& fc : kFixtures) {
    SCOPED_TRACE(fc.allowed);
    const std::vector<Finding> findings = scan_fixture(fc.allowed, fc);
    EXPECT_TRUE(findings.empty())
        << "allowlisted fixture still fires: " << findings[0].rule << " at "
        << findings[0].file << ":" << findings[0].line;
  }
}

TEST(LintFixtures, RuleListCoversEveryFixture) {
  std::set<std::string> ids;
  for (const rit::lint::RuleInfo& info : rit::lint::rule_infos()) {
    ids.insert(info.id);
  }
  std::set<std::string> fixture_rules;
  for (const FixtureCase& fc : kFixtures) {
    EXPECT_EQ(ids.count(fc.rule), 1u) << fc.rule;
    fixture_rules.insert(fc.rule);
  }
  EXPECT_EQ(fixture_rules, ids);
}

// --- Lexical machinery -----------------------------------------------------

TEST(LintStrip, RemovesCommentsAndStringsButKeepsLineStructure) {
  const std::string src =
      "int a; // std::rand() in a comment\n"
      "const char* s = \"std::rand()\";\n"
      "/* block std::rand()\n"
      "   more */ int b;\n";
  const std::string stripped = rit::lint::strip_comments_and_strings(src);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintStrip, RawStringsAndCharLiterals) {
  const std::string src =
      "auto re = R\"(std::rand\\b)\";\n"
      "char c = 'r';\n"
      "int keep = 1;\n";
  const std::string stripped = rit::lint::strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int keep = 1;"), std::string::npos);
}

TEST(LintStrip, KeepCommentsViewBlanksOnlyStrings) {
  const std::string src =
      "int a;  // rit-lint: allow(x)\n"
      "const char* s = \"// rit-lint: allow(y)\";\n"
      "/* block */ int b;\n";
  const std::string kept =
      rit::lint::strip_comments_and_strings(src, /*keep_comments=*/true);
  ASSERT_EQ(kept.size(), src.size());
  EXPECT_NE(kept.find("// rit-lint: allow(x)"), std::string::npos);
  EXPECT_EQ(kept.find("allow(y)"), std::string::npos);
  EXPECT_NE(kept.find("/* block */ int b;"), std::string::npos);
}

TEST(LintTokens, WordsPunctuationScopeAndEllipsisCarryTheirLine) {
  using rit::lint::internal::tokenize;
  const std::vector<rit::lint::internal::Token> tokens =
      tokenize("std::size_t n_2 =\n  f(...);\n");
  std::vector<std::string> texts;
  for (const auto& t : tokens) texts.push_back(t.text);
  const std::vector<std::string> want = {"std", "::", "size_t", "n_2", "=",
                                         "f",   "(",  "...",    ")",   ";"};
  EXPECT_EQ(texts, want);
  ASSERT_EQ(tokens.size(), want.size());
  EXPECT_EQ(tokens[4].line, 1u);
  EXPECT_EQ(tokens[5].line, 2u);
}

TEST(LintScan, TokensInCommentsAndStringsDoNotFire) {
  const SourceFile f{"src/sim/scratch.cpp",
                     "// mentions std::rand and mt19937 in prose\n"
                     "const char* kDoc = \"never call srand()\";\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

TEST(LintScan, WordBoundariesHold) {
  // "grand(", "operand(", "steady_clock" must not trip rand/wallclock
  // rules; std::ostream marks the file as a result path on purpose.
  const SourceFile f{"src/sim/scratch.cpp",
                     "#include <ostream>\n"
                     "void grand(std::ostream& out);\n"
                     "int operand(int x);\n"
                     "void t() { auto n = std::chrono::steady_clock::now(); "
                     "(void)n; }\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

TEST(LintScan, DistributionRuleMatchesWordsEndingInTheSuffix) {
  // Only a word longer than "_distribution" that ends in it fires, once
  // per line, naming the line's first hit.
  const SourceFile f{"src/sim/scratch.cpp",
                     "int distribution_count = 0;\n"
                     "int _distribution = 0;\n"
                     "std::normal_distribution<double> a; "
                     "std::gamma_distribution<> b;\n"
                     "my_distribution c;\n"};
  const std::vector<Finding> findings = rit::lint::scan_file(f);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-std-distribution");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].message.rfind("'normal_distribution'", 0), 0u)
      << findings[0].message;
  EXPECT_EQ(findings[1].rule, "no-std-distribution");
  EXPECT_EQ(findings[1].line, 4u);
}

TEST(LintScan, RandomDeviceAllowedInsideRngDir) {
  const std::string body =
      "#include <random>\nstd::random_device entropy_probe;\n";
  EXPECT_TRUE(
      rit::lint::scan_file(SourceFile{"src/rng/entropy.cpp", body}).empty());
  EXPECT_FALSE(
      rit::lint::scan_file(SourceFile{"src/sim/entropy.cpp", body}).empty());
}

// --- Structural rules ------------------------------------------------------

TEST(LintUnordered, LookupOnlyUseIsClean) {
  // edge_list_io-style: unordered_map as a remap table, never iterated.
  const SourceFile f{
      "src/graph/scratch_io.cpp",
      "#include <ostream>\n"
      "#include <unordered_map>\n"
      "void remap_write(std::ostream& out) {\n"
      "  std::unordered_map<int, int> remap;\n"
      "  remap[1] = 2;\n"
      "  out << remap[1];\n"
      "}\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

TEST(LintUnordered, IterationOutsideResultPathIsClean) {
  // No ostream marker, no result-ish path component: hash-order iteration
  // is only banned where it can leak into emitted results.
  const SourceFile f{
      "src/core/scratch.cpp",
      "#include <unordered_map>\n"
      "int sum_keys() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : m) s += k;\n"
      "  return s;\n"
      "}\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

TEST(LintUnordered, CppSeesDeclarationsFromSameStemHeader) {
  // Member declared in the header, hash-order float accumulation in the
  // .cpp.
  const SourceFile hdr{"src/platform/scratch.h",
                       "#include <unordered_map>\n"
                       "class Book {\n"
                       "  std::unordered_map<int, double> balances_;\n"
                       "  double total() const;\n"
                       "};\n"};
  const SourceFile cpp{
      "src/platform/scratch.cpp",
      "#include <ostream>\n"
      "void Book::statement(std::ostream& out) const { out << total(); }\n"
      "double Book::total() const {\n"
      "  double t = 0.0;\n"
      "  for (const auto& [a, b] : balances_) t += b;\n"
      "  return t;\n"
      "}\n"};
  const std::vector<Finding> findings = rit::lint::scan({hdr, cpp});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-unordered-iteration-in-results");
  EXPECT_EQ(findings[0].file, "src/platform/scratch.cpp");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LintMergeGuard, GuardInSiblingFileSatisfiesHeaderDefinition) {
  const SourceFile hdr{"src/stats/scratch.h",
                       "struct Acc {\n"
                       "  double sum{0.0};\n"
                       "  void merge(const Acc& other);\n"
                       "};\n"};
  const SourceFile cpp{"src/stats/scratch.cpp",
                       "static_assert(sizeof(Acc) == sizeof(double),\n"
                       "              \"update merge()\");\n"
                       "void Acc::merge(const Acc& other) { sum += "
                       "other.sum; }\n"};
  EXPECT_TRUE(rit::lint::scan({hdr, cpp}).empty());
  // Without the guard file, both the declaration and the out-of-line
  // definition are reported.
  EXPECT_FALSE(rit::lint::scan({hdr}).empty());
}

TEST(LintMergeGuard, SizeofOnALaterLineOfAStaticAssert) {
  const SourceFile f{"src/stats/scratch.h",
                     "struct Acc {\n"
                     "  double sum{0.0};\n"
                     "  void merge(const Acc& other);\n"
                     "};\n"
                     "static_assert(\n"
                     "    2 * sizeof(double) ==\n"
                     "        sizeof(Acc) + sizeof(double),\n"
                     "    \"update merge()\");\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

TEST(LintMergeGuard, CrossTypeFoldsCarryNoObligation) {
  // Stat::merge_in(const OnlineStats&) and friends: not a self-merge.
  const SourceFile f{"src/obs/scratch.h",
                     "struct Stat {\n"
                     "  void merge_in(const OnlineStats& other);\n"
                     "};\n"
                     "void Stat::merge(const OnlineStats& other) {}\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

// --- Directives ------------------------------------------------------------

TEST(LintAllow, DirectiveCoversItsLineAndTheNext) {
  const std::string line_after =
      "// rit-lint: allow(no-std-rand)\n"
      "int x = std::rand();\n";
  EXPECT_TRUE(
      rit::lint::scan_file(SourceFile{"src/a.cpp", line_after}).empty());
  const std::string two_below =
      "// rit-lint: allow(no-std-rand)\n"
      "int y = 0;\n"
      "int x = std::rand();\n";
  EXPECT_FALSE(
      rit::lint::scan_file(SourceFile{"src/a.cpp", two_below}).empty());
}

TEST(LintAllow, DirectiveInAStringLiteralShieldsNothing) {
  // Directive-shaped data in a literal is neither an escape nor a shield,
  // so it cannot silence a file outside the escape budget.
  const SourceFile f{"src/sim/scratch.cpp",
                     "#include <cstdlib>\n"
                     "const char* k = \"rit-lint: allow-file(*)\";\n"
                     "int noise() { return std::rand(); }\n"
                     "long double wide;\n"};
  EXPECT_TRUE(rit::lint::collect_escapes({f}).empty());
  const std::vector<Finding> findings = rit::lint::scan_file(f);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-std-rand");
  EXPECT_EQ(findings[1].rule, "no-long-double");
}

TEST(LintAllow, CommaSeparatedRulesAndWildcard) {
  const std::string multi =
      "int x = std::rand();  // rit-lint: allow(no-std-rand, no-std-engine)\n"
      "std::mt19937 eng;  // rit-lint: allow(*)\n";
  EXPECT_TRUE(rit::lint::scan_file(SourceFile{"src/a.cpp", multi}).empty());
}

// --- Tree walk -------------------------------------------------------------

TEST(LintTree, CollectsRepoSourcesDeterministically) {
  const std::vector<SourceFile> files =
      rit::lint::collect_tree(RITCS_SOURCE_DIR);
  ASSERT_GT(files.size(), 100u);
  for (std::size_t i = 1; i < files.size(); ++i) {
    EXPECT_LT(files[i - 1].path, files[i].path);
  }
  for (const SourceFile& f : files) {
    EXPECT_EQ(f.path.find("lint_fixtures"), std::string::npos) << f.path;
    EXPECT_EQ(f.path.find("tests/golden"), std::string::npos) << f.path;
  }
}

TEST(LintTree, LiveTreeIsClean) {
  const std::vector<Finding> findings =
      rit::lint::scan(rit::lint::collect_tree(RITCS_SOURCE_DIR));
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

TEST(LintTree, SeededViolationIsCaught) {
  // The acceptance smoke: drop a scratch file with std::rand into the scan
  // set and the tree goes red.
  std::vector<SourceFile> files = rit::lint::collect_tree(RITCS_SOURCE_DIR);
  files.push_back(SourceFile{"src/sim/scratch_seeded.cpp",
                             "#include <cstdlib>\n"
                             "int noise() { return std::rand(); }\n"});
  const std::vector<Finding> findings = rit::lint::scan(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-std-rand");
  EXPECT_EQ(findings[0].file, "src/sim/scratch_seeded.cpp");
}

// --- Include graph / layering ----------------------------------------------

TEST(LintLayering, ModuleAndTierMapping) {
  using rit::lint::internal::layer_of;
  using rit::lint::internal::module_of;
  EXPECT_EQ(module_of("src/core/rit.h"), "core");
  EXPECT_EQ(module_of("src/common/num_io.cpp"), "common");
  EXPECT_EQ(module_of("bench/bench_scale.cpp"), "bench");
  EXPECT_EQ(module_of("tests/lint_test.cpp"), "tests");
  EXPECT_EQ(module_of("configs/paper.cfg"), "");
  EXPECT_LT(layer_of("common"), layer_of("graph"));
  EXPECT_LT(layer_of("tree"), layer_of("core"));
  EXPECT_LT(layer_of("core"), layer_of("sim"));
  EXPECT_LT(layer_of("sim"), layer_of("attack"));
  EXPECT_LT(layer_of("attack"), layer_of("cli"));
  EXPECT_EQ(layer_of("core"), layer_of("stats"));
  EXPECT_EQ(layer_of("nonexistent"), -1);
}

TEST(LintLayering, DownwardAndSameTierIncludesAreClean) {
  const SourceFile f{"src/sim/scratch.cpp",
                     "#include \"common/check.h\"\n"
                     "#include \"core/rit.h\"\n"
                     "#include \"obs/obs.h\"\n"};
  EXPECT_TRUE(rit::lint::scan_file(f).empty());
}

TEST(LintLayering, InstrumentationExceptionsAreDeclaredEdges) {
  // tree -> obs and core -> obs cut across the tiers by declaration (obs
  // depends only on common/stats); sim -> attack has no such exception and
  // must fire.
  using rit::lint::internal::layering_exception;
  EXPECT_TRUE(layering_exception("tree", "obs"));
  EXPECT_TRUE(layering_exception("core", "obs"));
  EXPECT_FALSE(layering_exception("sim", "attack"));
  EXPECT_TRUE(
      rit::lint::scan_file(
              SourceFile{"src/core/scratch.cpp", "#include \"obs/obs.h\"\n"})
          .empty());
  const std::vector<Finding> findings = rit::lint::scan_file(
      SourceFile{"src/sim/scratch.cpp", "#include \"attack/sybil_plan.h\"\n"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-violation");
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintCycles, TwoFileCycleIsDetectedOnce) {
  const SourceFile a{"src/core/a_scratch.h",
                     "#pragma once\n#include \"core/b_scratch.h\"\n"};
  const SourceFile b{"src/core/b_scratch.h",
                     "#pragma once\n#include \"core/a_scratch.h\"\n"};
  const std::vector<Finding> findings = rit::lint::scan({a, b});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  // Anchored at the lexicographically first member's offending include.
  EXPECT_EQ(findings[0].file, "src/core/a_scratch.h");
  EXPECT_NE(findings[0].message.find("b_scratch"), std::string::npos);
}

TEST(LintCycles, DiamondIsNotACycle) {
  const SourceFile top{"src/core/top_scratch.h",
                       "#pragma once\n"
                       "#include \"core/left_scratch.h\"\n"
                       "#include \"core/right_scratch.h\"\n"};
  const SourceFile left{"src/core/left_scratch.h",
                        "#pragma once\n#include \"core/base_scratch.h\"\n"};
  const SourceFile right{"src/core/right_scratch.h",
                         "#pragma once\n#include \"core/base_scratch.h\"\n"};
  const SourceFile base{"src/core/base_scratch.h", "#pragma once\n"};
  EXPECT_TRUE(rit::lint::scan({top, left, right, base}).empty());
}

TEST(LintGraph, ResolvesQuotedIncludesDeterministically) {
  using rit::lint::internal::build_include_graph;
  using rit::lint::internal::IncludeGraph;
  using rit::lint::internal::prep;
  const std::vector<SourceFile> files{
      {"src/common/low_scratch.h", "#pragma once\n"},
      {"src/core/user_scratch.cpp",
       "#include \"common/low_scratch.h\"\n"
       "#include \"gtest/gtest.h\"\n"},  // external: no edge
  };
  std::vector<rit::lint::internal::Prepped> prepped;
  for (const SourceFile& f : files) prepped.push_back(prep(f));
  const IncludeGraph graph = build_include_graph(prepped);
  ASSERT_EQ(graph.files.size(), 2u);
  EXPECT_TRUE(graph.edges[0].empty());
  ASSERT_EQ(graph.edges[1].size(), 1u);
  EXPECT_EQ(graph.edges[1][0].second, 0);  // resolved to low_scratch.h
  EXPECT_EQ(graph.edges[1][0].first, 1u);  // at line 1
}

TEST(LintGraph, IncludesInCommentsAndStringsMakeNoEdge) {
  using rit::lint::internal::build_include_graph;
  using rit::lint::internal::IncludeGraph;
  using rit::lint::internal::prep;
  const std::vector<SourceFile> files{
      {"src/common/low_scratch.h", "#pragma once\n"},
      {"src/core/user_scratch.cpp",
       "// #include \"common/low_scratch.h\"\n"
       "/* #include \"common/low_scratch.h\"\n"
       "   #include \"common/low_scratch.h\" */\n"
       "const char* s = \"#include \\\"common/low_scratch.h\\\"\";\n"
       "#  include \"common/low_scratch.h\"\n"
       "#include <vector>\n"},
  };
  std::vector<rit::lint::internal::Prepped> prepped;
  for (const SourceFile& f : files) prepped.push_back(prep(f));
  ASSERT_EQ(prepped[1].includes.size(), 1u);
  EXPECT_EQ(prepped[1].includes[0].line, 5u);
  EXPECT_EQ(prepped[1].includes[0].target, "common/low_scratch.h");
  const IncludeGraph graph = build_include_graph(prepped);
  ASSERT_EQ(graph.edges[1].size(), 1u);
  EXPECT_EQ(graph.edges[1][0].second, 0);
  EXPECT_EQ(graph.edges[1][0].first, 5u);
}

TEST(LintUnusedInclude, UseOfAnyExportedNameSilencesTheNote) {
  const SourceFile hdr{"src/common/scratch_helper2.h",
                       "#pragma once\n"
                       "struct HelperThing { int v{0}; };\n"};
  const SourceFile user{"src/sim/scratch_user.cpp",
                        "#include \"common/scratch_helper2.h\"\n"
                        "int probe() { HelperThing t; return t.v; }\n"};
  EXPECT_TRUE(rit::lint::scan({hdr, user}).empty());
}

TEST(LintUnusedInclude, AliasMacroAndCallLikeNamesAreExported) {
  const SourceFile hdr{"src/common/scratch_helper3.h",
                       "#pragma once\n"
                       "using ScratchId = int;\n"
                       "#define SCRATCH_LIMIT 4\n"
                       "int scratch_probe(int x);\n"};
  const std::string include = "#include \"common/scratch_helper3.h\"\n";
  for (const char* name : {"ScratchId", "SCRATCH_LIMIT", "scratch_probe"}) {
    const SourceFile user{"src/sim/scratch_user3.cpp",
                          include + "int use() { return sizeof(" + name +
                              "); }\n"};
    EXPECT_TRUE(rit::lint::scan({hdr, user}).empty()) << name;
  }
  const SourceFile idle{"src/sim/scratch_user3.cpp",
                        include + "int use() { return 1; }\n"};
  const std::vector<Finding> findings = rit::lint::scan({hdr, idle});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unused-include");
  EXPECT_EQ(findings[0].file, "src/sim/scratch_user3.cpp");
  EXPECT_EQ(findings[0].line, 1u);
}

// --- Output formats ---------------------------------------------------------

std::vector<Finding> sample_findings() {
  return {
      Finding{"src/sim/a.cpp", 3, "no-std-rand", "msg with \"quotes\""},
      Finding{"src/sim/b.cpp", 9, "unused-include",
              "back\\slash\nnew line\ttab\x01"},
  };
}

TEST(LintOutput, SarifEscapesStrings) {
  const std::string sarif = rit::lint::render_sarif(sample_findings());
  EXPECT_NE(sarif.find("msg with \\\"quotes\\\""), std::string::npos);
  EXPECT_NE(sarif.find("back\\\\slash\\nnew line\\ttab\\u0001"),
            std::string::npos);
  EXPECT_EQ(sarif.find("\n\""), std::string::npos);  // no raw newlines leak
}

TEST(LintOutput, SarifSchemaShape) {
  // The smoke-level SARIF 2.1.0 contract GitHub code scanning needs:
  // version, tool.driver.name, a rules array carrying every known rule
  // with descriptions, and results with ruleId/ruleIndex/level/location.
  const std::string sarif = rit::lint::render_sarif(sample_findings());
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"rit_lint\""), std::string::npos);
  for (const rit::lint::RuleInfo& info : rit::lint::rule_infos()) {
    EXPECT_NE(sarif.find("\"id\": \"" + info.id + "\""), std::string::npos)
        << info.id;
  }
  EXPECT_NE(sarif.find("\"shortDescription\""), std::string::npos);
  EXPECT_NE(sarif.find("\"fullDescription\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"no-std-rand\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": "), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/sim/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
}

TEST(LintOutput, FormatNameParsing) {
  rit::lint::OutputFormat fmt{};
  EXPECT_TRUE(rit::lint::parse_output_format("sarif", &fmt));
  EXPECT_EQ(fmt, rit::lint::OutputFormat::kSarif);
  EXPECT_FALSE(rit::lint::parse_output_format("xml", &fmt));
}

// --- Escape budget ----------------------------------------------------------

TEST(LintEscapes, LiveTreeMatchesCheckedInBudget) {
  // Every `// rit-lint: allow(...)` in the tree must be accounted for in
  // tests/lint_escapes_expected.txt: a new suppression anywhere requires
  // an explicit, reviewable edit to that list. Directives inside string
  // literals (this suite's own test data) do not count.
  std::vector<std::string> actual;
  for (const rit::lint::EscapeRecord& rec : rit::lint::collect_escapes(
           rit::lint::collect_tree(RITCS_SOURCE_DIR))) {
    actual.push_back(rec.file + " " + rec.rule +
                     (rec.file_scope ? " file-scope" : ""));
  }
  std::vector<std::string> expected;
  std::ifstream in(std::string(RITCS_SOURCE_DIR) +
                   "/tests/lint_escapes_expected.txt");
  ASSERT_TRUE(in.good());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    expected.push_back(line);
  }
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(actual, expected)
      << "escape inventory drifted from tests/lint_escapes_expected.txt";
}

TEST(LintEscapes, StringLiteralDirectivesDoNotCount) {
  const SourceFile f{
      "src/sim/scratch.cpp",
      "const char* kData = \"// rit-lint: allow(no-std-rand)\";\n"
      "int x = 0;  // rit-lint: allow(no-long-double)\n"};
  const std::vector<rit::lint::EscapeRecord> records =
      rit::lint::collect_escapes({f});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rule, "no-long-double");
  EXPECT_EQ(records[0].line, 2u);
}

// --- Docs drift -------------------------------------------------------------

TEST(LintDocs, EveryRuleIsDocumented) {
  // docs/static_analysis.md is the contract contributors read; a rule the
  // engine enforces but the doc does not mention is drift.
  std::ifstream in(std::string(RITCS_SOURCE_DIR) +
                   "/docs/static_analysis.md");
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  for (const rit::lint::RuleInfo& info : rit::lint::rule_infos()) {
    EXPECT_NE(doc.find(info.id), std::string::npos)
        << "rule '" << info.id
        << "' is not mentioned in docs/static_analysis.md";
  }
}

}  // namespace
