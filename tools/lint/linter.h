// rit_lint: the repo-specific correctness linter.
//
// RIT's headline guarantees (truthfulness and sybil-proofness with
// probability >= H) are only reproducible if every randomized path is
// deterministic and portable. The compiler cannot enforce that — nothing
// stops a contributor from reintroducing std::uniform_int_distribution
// (stream differs between standard libraries), iterating an unordered_map
// into a report (hash order differs between runs), or adding a metrics
// field that merge() silently drops. This linter turns those conventions
// into machine-checked invariants.
//
// The engine has three layers plus a renderer (one file each under
// tools/lint/):
//   scanner.{h,cpp}        lexical: the one comment/string stripper, the
//                          per-file token stream, allowlist directives
//   include_graph.{h,cpp}  architectural: the #include dependency graph,
//                          the declared module layering DAG, cycle
//                          detection, the IWYU-lite heuristic
//   linter.{h,cpp}         the rule table and scan orchestration (this
//                          public surface)
//   output.{h,cpp}         text and SARIF rendering for the CLI
//
// Rules stay deliberately lexical: strip comments and string literals,
// then match word-bounded tokens per line and a few structural patterns
// over the token stream. That keeps rules declarative (see kRules in
// linter.cpp), fast, and free of a compiler dependency — at the cost of
// heuristic precision, which the allowlist escape hatch compensates for:
//
//   some_call();  // rit-lint: allow(<rule-id>)     (this line + the next)
//   // rit-lint: allow-file(<rule-id>)              (whole file)
//
// Every rule has fixture-based self-tests under tests/lint_fixtures/
// (ctest -L lint), the live tree is scanned as a test, and the set of
// escape directives in the live tree is itself inventoried against a
// checked-in budget (tests/lint_escapes_expected.txt), so neither banned
// patterns nor silent suppressions can accumulate.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rit::lint {

/// One violation; every finding is an error and fails the gate. `line` is
/// 1-based; `rule` is the stable rule id used in allowlist directives.
struct Finding {
  std::string file;
  std::size_t line{0};
  std::string rule;
  std::string message;
};

/// Static description of a rule: `summary` is the one-line message shown
/// in listings; `rationale` is the paragraph behind `--explain <rule>`
/// and SARIF fullDescription.
struct RuleInfo {
  std::string id;
  std::string summary;
  std::string rationale;
};

/// An in-memory file handed to the scanner. `path` should be
/// repo-relative with forward slashes — path-scoped rules (e.g.
/// no-random-device outside src/rng/) match against it.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One `// rit-lint: allow(...)` / `allow-file(...)` escape directive
/// found in a file's comments (directives inside string literals — lint
/// test data — do not count).
struct EscapeRecord {
  std::string file;
  std::size_t line{0};
  std::string rule;
  bool file_scope{false};
};

/// All rules the engine knows, in reporting order.
std::vector<RuleInfo> rule_infos();

/// Scans a set of files as one unit. Cross-file rules (merge-coverage-guard
/// pairs a merge() definition with its static_assert guard, possibly in a
/// sibling .cpp; unordered-iteration pairs a .cpp with declarations in its
/// same-stem header; the include-graph rules resolve includes against the
/// whole set) only see what is inside `files`, so pass the whole tree for
/// a tree-level verdict.
std::vector<Finding> scan(const std::vector<SourceFile>& files);

/// Convenience: scans a single file in isolation (fixture self-tests).
std::vector<Finding> scan_file(const SourceFile& file);

/// Inventories every escape directive in `files`, in (file, line) order.
/// The escape-budget test diffs this against the checked-in expected list
/// so a new suppression requires an explicit test update.
std::vector<EscapeRecord> collect_escapes(
    const std::vector<SourceFile>& files);

/// Walks `root` and collects the scan set: *.h *.hpp *.cpp *.cc under
/// src/ bench/ tests/ tools/ examples/, plus build files (CMakeLists.txt,
/// *.cmake, *.sh) for the flag rules. Skips build trees, tests/golden/ and
/// tests/lint_fixtures/ (fixtures intentionally violate rules). Paths in
/// the result are repo-relative.
std::vector<SourceFile> collect_tree(const std::string& root);

/// Blanks //, /* */ comments and "..."/'...' literals (incl. simple raw
/// strings) to spaces, preserving line structure, so rule tokens never
/// match inside prose. With `keep_comments` the comments pass through
/// verbatim: that is the view allow directives are parsed from. Exposed
/// for the self-tests.
std::string strip_comments_and_strings(const std::string& content,
                                       bool keep_comments = false);

}  // namespace rit::lint
