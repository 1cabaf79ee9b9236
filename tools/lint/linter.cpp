// The rule layer of rit_lint: the declarative token-rule table, the
// structural rules, and scan() orchestration. Lexical machinery lives in
// scanner.cpp; the include-graph rules live in include_graph.cpp; output
// rendering and baselines live in output.cpp / baseline.cpp.
#include "linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "include_graph.h"
#include "scanner.h"

namespace rit::lint {
namespace {

using internal::FileClass;
using internal::line_has_token;
using internal::Prepped;
using internal::token_matches_at;

// ---------------------------------------------------------------------------
// Rule table. Token rules are pure data; the structural rules
// (no-unordered-iteration-in-results, no-bare-catch-all,
// merge-coverage-guard, no-rng-in-parallel-region) and the include-graph
// rules (layer-violation, include-cycle, unused-include) are engine checks
// registered at the bottom of rule_infos().
// ---------------------------------------------------------------------------

struct TokenRule {
  const char* id;
  const char* summary;
  const char* rationale;
  FileClass file_class;
  // Word-bounded literal tokens: a match only counts when the characters
  // adjacent to word-character token edges are non-word.
  std::vector<const char*> tokens;
  // ECMAScript regexes for patterns a literal token cannot express.
  std::vector<const char*> regexes;
  // Repo-relative path substrings exempt from this rule.
  std::vector<const char*> path_excludes;
  // Restrict to "result path" files: path names a report/serialization
  // boundary, or the file mentions std::ostream / std::ofstream.
  bool result_path_only{false};
  // Restrict to the numeric-IO boundary files (numeric_io_paths()). The
  // default-initializer keeps the many rules that don't scope themselves
  // warning-clean under -Wmissing-field-initializers.
  bool numeric_io_only{false};
};

// The numeric-IO boundary files: everything that writes or parses numbers
// across a file boundary. Shared by no-locale-numeric (bans the
// locale-reading C formatting family) and boundary-io-num-io (requires
// the remaining formatting to route through common/num_io.h).
const std::vector<const char*>& numeric_io_paths() {
  static const std::vector<const char*> kPaths = {
      "result_io",     "config_io",     "checkpoint",
      "population_io", "cli/args",      "format_util",
      "num_io",        "bench_support", "testkit/fuzz_case",
      "fuzz_runner",   "common/record"};
  return kPaths;
}

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> kRules = {
      {"no-std-rand",
       "libc/std PRNGs (std::rand, rand, srand, *rand48) are seeded "
       "globally and unspecified across platforms; use rng::Rng",
       "The libc PRNG family keeps hidden global state and its output "
       "sequence is implementation-defined, so a trial that touches it is "
       "neither replayable from a seed nor portable across platforms. "
       "Every draw must come from an explicitly seeded rng::Rng stream.",
       FileClass::kCpp,
       {"std::rand", "rand(", "srand", "rand_r", "drand48", "lrand48",
        "mrand48", "random("},
       {},
       {}},
      {"no-random-device",
       "std::random_device is nondeterministic by design; only src/rng/ "
       "may touch entropy sources",
       "std::random_device reads an entropy source, which is "
       "nondeterministic by design — a single call anywhere in a trial "
       "path breaks seed replay. Only the rng subsystem may ever touch "
       "entropy, and only behind an explicit opt-in.",
       FileClass::kCpp,
       {"random_device"},
       {},
       {"src/rng/"}},
      {"no-std-distribution",
       "<random> distributions leave the mapping from engine output to "
       "values unspecified — two standard libraries produce different "
       "streams from the same seed; use the explicit samplers in rng::Rng",
       "The C++ standard specifies distribution *statistics*, not the "
       "algorithm: libstdc++ and libc++ produce different values from the "
       "same engine and seed. The explicit samplers on rng::Rng are "
       "written out in full precisely so every toolchain draws the same "
       "stream.",
       FileClass::kCpp,
       {},
       {R"(\b\w+_distribution\b)"},
       {}},
      {"no-std-engine",
       "std engines (mt19937, minstd_rand, ...) invite std::shuffle / "
       "distribution use and duplicate the repo-wide rng::Rng stream",
       "A second engine family fragments the repo-wide seeded-stream "
       "discipline (one xoshiro256 stream per trial, split via "
       "splitmix64) and invites std::shuffle / distribution use, both of "
       "which are implementation-defined. Everything draws from rng::Rng.",
       FileClass::kCpp,
       {"mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
        "default_random_engine", "ranlux24", "ranlux48", "knuth_b",
        "mersenne_twister_engine", "linear_congruential_engine",
        "subtract_with_carry_engine"},
       {},
       {"src/rng/"}},
      {"no-std-shuffle",
       "std::shuffle's permutation algorithm is implementation-defined "
       "for a given engine; use rng-based shuffling "
       "(rng::Rng::shuffle / Fisher-Yates over Rng)",
       "Which permutation std::shuffle produces for a given engine state "
       "is implementation-defined, so the same seed yields different "
       "orders on different standard libraries. Use Fisher-Yates over "
       "rng::Rng (rng::Rng::shuffle), which pins the "
       "algorithm.",
       FileClass::kCpp,
       {"std::shuffle", "random_shuffle"},
       {},
       {}},
      {"no-wallclock-in-results",
       "wall-clock reads (system_clock, std::time, localtime, ...) in a "
       "result path make output depend on when it ran; results must be a "
       "function of (config, seed) only — use stats::Timer / steady_clock "
       "for durations",
       "A wall-clock read in a result path makes emitted bytes depend on "
       "when the run happened, so two runs of the same (config, seed) "
       "stop being comparable. Durations belong to stats::Timer "
       "(steady_clock); timestamps belong only to logs, which are not "
       "results.",
       FileClass::kCpp,
       {"system_clock", "std::time", "time(nullptr)", "time(NULL)",
        "gettimeofday", "localtime", "gmtime", "strftime", "asctime",
        "ctime("},
       {},
       {},
       /*result_path_only=*/true},
      {"no-locale-numeric",
       "the strtod/snprintf family reads the global locale's radix "
       "character, so a result written under de_DE prints \"0,5\" and the "
       "read-back under C rejects it; numbers that cross a file boundary "
       "must go through rit::parse_double / parse_u64 / format_* "
       "(common/num_io.h), which are locale-independent and reject the "
       "strtoull sign/whitespace/overflow laxness",
       "strtod, snprintf and friends read the process-global locale's "
       "radix character: a checkpoint written under de_DE prints \"0,5\" "
       "and fails read-back under C. strtoull additionally wraps \"-1\" "
       "to 2^64-1 silently. The from_chars/to_chars wrappers in "
       "common/num_io.h are locale-independent, bit-exact and strict.",
       FileClass::kCpp,
       {"strtod", "strtof", "strtold", "strtol", "strtoll", "strtoul",
        "strtoull", "strtoimax", "strtoumax", "atof", "atoi", "atol",
        "atoll", "stod", "stof", "stold", "stoi", "stol", "stoll", "stoul",
        "stoull", "sscanf", "scanf", "sprintf", "snprintf", "vsnprintf",
        "vsprintf"},
       {},
       {},
       /*result_path_only=*/false,
       /*numeric_io_only=*/true},
      {"boundary-io-num-io",
       "float/number formatting in the result/config/checkpoint "
       "IO paths must route through common/num_io.h (format_double_*, "
       "format_u64, parse_*) — std::to_string(double) and stream float "
       "manipulators are locale- or precision-lossy, and raw "
       "from_chars/to_chars calls belong centralized in num_io",
       "Generalizes no-locale-numeric from 'do not call the C locale "
       "family' to 'every number that crosses a file boundary goes "
       "through common/num_io.h'. std::to_string(double) formats via the "
       "global locale and truncates to 6 digits; stream precision "
       "manipulators scatter formatting policy across call sites; and a "
       "raw std::from_chars/to_chars call, while locale-safe, duplicates "
       "the one place (num_io) whose round-trip behavior is pinned by "
       "tests. Use format_double_g17 / format_double_shortest / "
       "format_hex_double / format_u64 / parse_double / parse_u64.",
       FileClass::kCpp,
       {"std::to_string", "from_chars", "to_chars", "setprecision",
        "std::hexfloat", "std::scientific", "std::defaultfloat",
        "std::fixed", "precision("},
       {},
       {"common/num_io"},
       /*result_path_only=*/false,
       /*numeric_io_only=*/true},
      {"no-fast-math",
       "-ffast-math / -Ofast license reassociation and FTZ, so the same "
       "seed stops reproducing the same floats across compilers",
       "-ffast-math and friends license the compiler to reassociate "
       "float expressions and flush denormals, so the same seed stops "
       "reproducing the same payment totals across compilers and "
       "optimization levels. The flags are banned from every build file.",
       FileClass::kBuild,
       {"-ffast-math", "-funsafe-math-optimizations", "-Ofast",
        "/fp:fast", "-ffp-contract=fast"},
       {},
       {}},
      {"no-raw-process-api",
       "raw process primitives (fork, execve, kill, waitpid, setrlimit, "
       "prctl, ...) outside src/platform/ scatter lifecycle management the "
       "supervisor owns; route process isolation through "
       "platform/supervisor.h",
       "Forking, signaling, reaping and rlimiting are full of sharp edges "
       "this repo has already paid for once: PDEATHSIG races, pipe "
       "deadlocks, zombie leaks, fork-while-threaded undefined behavior. "
       "The supervisor (src/platform/) centralizes every one of those "
       "decisions behind run_trials_supervised; a second call site would "
       "re-litigate them unreviewed. std::raise is deliberately not "
       "listed: sim/chaos.cpp raises signals in-process by design.",
       FileClass::kCpp,
       {"fork(", "vfork", "execve", "execv(", "execvp", "execl(", "execlp",
        "execle", "posix_spawn", "waitpid", "wait4(", "waitid", "kill(",
        "killpg", "setrlimit", "getrlimit", "prlimit", "ptrace", "prctl"},
       {},
       {"src/platform/"}},
      {"no-long-double",
       "long double is 80-bit on x86, 128-bit on aarch64, 64-bit on "
       "MSVC — metrics computed with it are not portable; use double",
       "long double is 80-bit x87 on x86 Linux, 128-bit on aarch64 and "
       "plain double on MSVC, so any metric computed with it differs "
       "across platforms. All metrics are double by policy "
       "(-Wdouble-promotion guards the other direction).",
       FileClass::kCpp,
       {"long double"},
       {},
       {}},
      {"testkit-only-injection",
       "the RIT_TESTKIT_INJECT_BUG / RIT_BUG_ENABLED planted-bug gates "
       "belong only to the declared injection seam (common/bug_inject.h "
       "plus the explicitly allow-listed core sites); a gate anywhere else "
       "could ship a deliberately wrong branch in a production build",
       "The fuzz harness self-tests by recompiling two core TUs with "
       "-DRIT_TESTKIT_INJECT_BUG=<id>, which flips a deliberately wrong "
       "branch. That is safe only because the seam is tiny and auditable: "
       "the macro definitions live in common/bug_inject.h and the gates in "
       "the two allow-listed core files, where the default expansion is "
       "the correct branch. A gate added anywhere else would widen the "
       "surface where a miswired build flag ships wrong mechanism "
       "behavior, unreviewed.",
       FileClass::kCpp,
       {"RIT_TESTKIT_INJECT_BUG", "RIT_BUG_ENABLED"},
       {},
       {"common/bug_inject"}},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Token + regex rules
// ---------------------------------------------------------------------------

void run_token_rules(const Prepped& p, std::vector<Finding>* out) {
  for (const TokenRule& rule : token_rules()) {
    if (rule.file_class != p.file_class) continue;
    if (rule.result_path_only && !p.result_path) continue;
    if (internal::path_contains_any(p.src->path, rule.path_excludes)) {
      continue;
    }
    if (rule.numeric_io_only &&
        !internal::path_contains_any(p.src->path, numeric_io_paths())) {
      continue;
    }
    std::vector<std::regex> regexes;
    regexes.reserve(rule.regexes.size());
    for (const char* r : rule.regexes) regexes.emplace_back(r);
    for (std::size_t i = 0; i < p.lines.size(); ++i) {
      const std::string& line = p.lines[i];
      bool hit = false;
      std::string what;
      for (const char* token : rule.tokens) {
        if (line_has_token(line, token)) {
          hit = true;
          what = token;
          break;
        }
      }
      if (!hit) {
        for (std::size_t r = 0; r < regexes.size(); ++r) {
          std::smatch m;
          if (std::regex_search(line, m, regexes[r])) {
            hit = true;
            what = m.str(0);
            break;
          }
        }
      }
      if (hit) {
        internal::emit(p, i + 1, rule.id, "'" + what + "': " + rule.summary,
                       Severity::kError, out);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structural rule: no-unordered-iteration-in-results
// ---------------------------------------------------------------------------

// Identifiers declared with an unordered container type in `p` (handles
// nested template args: std::unordered_map<K, std::vector<V>> name).
std::set<std::string> unordered_idents(const Prepped& p) {
  std::set<std::string> idents;
  static const char* const kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const std::string& line : p.lines) {
    for (const char* type : kTypes) {
      for (std::size_t pos = line.find(type); pos != std::string::npos;
           pos = line.find(type, pos + 1)) {
        if (!token_matches_at(line, pos, type)) continue;
        std::size_t i = pos + std::string(type).size();
        while (i < line.size() && line[i] == ' ') ++i;
        if (i >= line.size() || line[i] != '<') continue;
        int depth = 0;
        for (; i < line.size(); ++i) {
          if (line[i] == '<') ++depth;
          if (line[i] == '>' && --depth == 0) break;
        }
        if (i >= line.size()) continue;  // declaration spans lines; punt
        ++i;
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '&' || line[i] == '*')) {
          ++i;
        }
        std::string name;
        while (i < line.size() && internal::is_word(line[i])) {
          name += line[i++];
        }
        if (!name.empty() &&
            std::isdigit(static_cast<unsigned char>(name[0])) == 0) {
          idents.insert(name);
        }
      }
    }
  }
  return idents;
}

// True when `line` range-iterates or begin()-iterates `ident`.
bool iterates(const std::string& line, const std::string& ident) {
  // for (... : ident)
  if (line.find("for") != std::string::npos) {
    for (std::size_t pos = line.find(ident); pos != std::string::npos;
         pos = line.find(ident, pos + 1)) {
      if (!token_matches_at(line, pos, ident)) continue;
      std::size_t before = pos;
      while (before > 0 && line[before - 1] == ' ') --before;
      std::size_t after = pos + ident.size();
      while (after < line.size() && line[after] == ' ') ++after;
      if (before > 0 && line[before - 1] == ':' &&
          (before < 2 || line[before - 2] != ':') && after < line.size() &&
          line[after] == ')') {
        return true;
      }
    }
  }
  // ident.begin() / ident.cbegin() / ident.rbegin()
  for (const char* b : {".begin(", ".cbegin(", ".rbegin("}) {
    const std::string probe = ident + b;
    if (line_has_token(line, probe)) return true;
  }
  return false;
}

// A .cpp sees declarations from its same-stem header: a container member
// declared in src/sim/report.h and iterated in src/sim/report.cpp is
// caught in the .cpp.
std::string sibling_header(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos) return {};
  const std::string ext = path.substr(dot);
  if (ext != ".cpp" && ext != ".cc" && ext != ".cxx") return {};
  return path.substr(0, dot) + ".h";
}

void run_unordered_iteration_rule(
    const Prepped& p, const std::map<std::string, const Prepped*>& by_path,
    std::vector<Finding>* out) {
  static const char* kId = "no-unordered-iteration-in-results";
  if (p.file_class != FileClass::kCpp || !p.result_path) return;
  std::set<std::string> idents = unordered_idents(p);
  const std::string hdr = sibling_header(p.src->path);
  if (!hdr.empty()) {
    auto it = by_path.find(hdr);
    if (it != by_path.end()) {
      std::set<std::string> inherited = unordered_idents(*it->second);
      idents.insert(inherited.begin(), inherited.end());
    }
  }
  if (idents.empty()) return;
  for (std::size_t i = 0; i < p.lines.size(); ++i) {
    for (const std::string& ident : idents) {
      if (iterates(p.lines[i], ident)) {
        internal::emit(
            p, i + 1, kId,
            "iterating unordered container '" + ident +
                "' in a result path: hash order differs between runs and "
                "platforms, so emitted reports / accumulated floats are "
                "nondeterministic; sort keys first or use std::map at the "
                "boundary",
            Severity::kError, out);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structural rule: no-bare-catch-all
// ---------------------------------------------------------------------------

// `catch (...)` erases the failure's identity; a handler that then neither
// rethrows nor visibly records what it caught turns every crash into silent
// data loss (the failure-containment bug class: a faulted trial that just
// disappears from the aggregate). Evidence of handling is lexical: the
// handler body mentions rethrow/record/ledger/fault/log/abort/error/fail/
// note. Anything quieter needs an explicit `// rit-lint: allow(...)` with
// its justification.
void run_bare_catch_all_rule(const Prepped& p, std::vector<Finding>* out) {
  static const char* kId = "no-bare-catch-all";
  if (p.file_class != FileClass::kCpp) return;
  std::string joined;
  for (const std::string& line : p.lines) {
    joined += line;
    joined += '\n';
  }
  const auto skip_blank = [&joined](std::size_t i) {
    while (i < joined.size() && (joined[i] == ' ' || joined[i] == '\n')) ++i;
    return i;
  };
  std::size_t line_no = 1;
  std::size_t scanned = 0;  // joined[0, scanned) already counted into line_no
  for (std::size_t at = joined.find("catch"); at != std::string::npos;
       at = joined.find("catch", at + 5)) {
    if (!token_matches_at(joined, at, "catch")) continue;
    std::size_t i = skip_blank(at + 5);
    if (i >= joined.size() || joined[i] != '(') continue;
    i = skip_blank(i + 1);
    if (joined.compare(i, 3, "...") != 0) continue;
    i = skip_blank(i + 3);
    if (i >= joined.size() || joined[i] != ')') continue;
    i = joined.find('{', i);
    if (i == std::string::npos) continue;
    // Brace-match the handler body (comments/strings are already stripped,
    // so every brace is code).
    const std::size_t body_begin = i;
    int depth = 0;
    for (; i < joined.size(); ++i) {
      if (joined[i] == '{') ++depth;
      if (joined[i] == '}' && --depth == 0) break;
    }
    std::string body = joined.substr(body_begin, i - body_begin);
    for (char& c : body) c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(c)));
    static const char* const kEvidence[] = {"throw", "record", "ledger",
                                            "fault", "log",    "abort",
                                            "error", "fail",   "note"};
    bool handled = false;
    for (const char* ev : kEvidence) {
      if (body.find(ev) != std::string::npos) {
        handled = true;
        break;
      }
    }
    if (handled) continue;
    line_no += static_cast<std::size_t>(
        std::count(joined.begin() + static_cast<std::ptrdiff_t>(scanned),
                   joined.begin() + static_cast<std::ptrdiff_t>(at), '\n'));
    scanned = at;
    internal::emit(
        p, line_no, kId,
        "'catch (...)' swallows the exception without rethrowing or "
        "recording it; contain faults visibly (rethrow, or record into a "
        "ledger/log) or annotate the intent with rit-lint: allow",
        Severity::kError, out);
  }
}

// ---------------------------------------------------------------------------
// Structural rule: no-rng-in-parallel-region
// ---------------------------------------------------------------------------

// The intra-trial parallel passes (docs/scaling.md) are bit-identical to
// serial only because every Rng draw happens OUTSIDE the
// parallel_for_blocked callbacks: the blocked partition reorders execution
// across workers, so a shared stream drawn inside a callback would consume
// values in a thread-count-dependent order. Lexically: within the argument
// extent of a parallel_for_blocked(...) call, any mention of the Rng type
// or an rng-named object (rng, probe_rng, trial_rng, ...) is flagged.
void run_rng_in_parallel_region_rule(const Prepped& p,
                                     std::vector<Finding>* out) {
  static const char* kId = "no-rng-in-parallel-region";
  if (p.file_class != FileClass::kCpp) return;
  std::string joined;
  std::vector<std::size_t> line_start;  // offset of each line in `joined`
  for (const std::string& line : p.lines) {
    line_start.push_back(joined.size());
    joined += line;
    joined += '\n';
  }
  const auto line_of = [&line_start](std::size_t off) {
    std::size_t lo = 0, hi = line_start.size();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      (line_start[mid] <= off ? lo : hi) = mid;
    }
    return lo + 1;  // 1-based
  };

  static const std::regex kRngRe(R"(\b\w*[Rr]ng\b)");
  static const std::string kCall = "parallel_for_blocked";
  for (std::size_t at = joined.find(kCall); at != std::string::npos;
       at = joined.find(kCall, at + kCall.size())) {
    if (!token_matches_at(joined, at, kCall)) continue;
    std::size_t i = at + kCall.size();
    while (i < joined.size() && (joined[i] == ' ' || joined[i] == '\n')) ++i;
    if (i >= joined.size() || joined[i] != '(') continue;
    // Paren-match the full argument extent (comments/strings stripped, so
    // every paren is code). This covers the callback body wherever the
    // lambda sits in the argument list.
    const std::size_t args_begin = i;
    int depth = 0;
    for (; i < joined.size(); ++i) {
      if (joined[i] == '(') ++depth;
      if (joined[i] == ')' && --depth == 0) break;
    }
    const std::string extent =
        joined.substr(args_begin, i >= joined.size() ? std::string::npos
                                                     : i - args_begin);
    for (auto it =
             std::sregex_iterator(extent.begin(), extent.end(), kRngRe);
         it != std::sregex_iterator(); ++it) {
      const std::size_t off =
          args_begin + static_cast<std::size_t>(it->position(0));
      internal::emit(
          p, line_of(off), kId,
          "'" + it->str(0) +
              "' inside a parallel_for_blocked callback: the blocked "
              "partition reorders execution across workers, so drawing "
              "from (or capturing) an Rng here consumes the stream in a "
              "thread-count-dependent order and breaks bit-identical "
              "parallelism (docs/scaling.md); draw everything the region "
              "needs before the parallel call",
          Severity::kError, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Structural rule: merge-coverage-guard
// ---------------------------------------------------------------------------

// A self-merge `void merge(const T&)` (incl. out-of-line `void T::merge`)
// must be paired, somewhere in the tree, with a field-coverage guard:
//   static_assert(sizeof(T) == ...)
// Without it, adding a field to T silently drops it from aggregation —
// the exact bug class AggregateMetrics hit before PR 2.
struct MergeDef {
  const Prepped* file;
  std::size_t line;
  std::string type;
};

void collect_merge_info(const Prepped& p, std::vector<MergeDef>* defs,
                        std::set<std::string>* guarded) {
  if (p.file_class != FileClass::kCpp) return;
  static const std::regex kMergeRe(
      R"(\bvoid\s+(?:(\w+)\s*::\s*)?merge\s*\(\s*const\s+(\w+)\s*&)");
  static const std::regex kSizeofRe(R"(sizeof\s*\(\s*(\w+)\s*\))");
  for (std::size_t i = 0; i < p.lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(p.lines[i], m, kMergeRe)) {
      // Only self-merges: merge(const T&) inside T, or T::merge(const T&).
      // Cross-type folds (e.g. Stat::merge_in(const OnlineStats&)) are a
      // different shape and carry no field-coverage obligation here.
      if (!m[1].matched || m[1].str() == m[2].str()) {
        defs->push_back(MergeDef{&p, i + 1, m[2].str()});
      }
    }
  }
  // static_assert(sizeof(T) ...) may wrap across lines; search a window
  // after each static_assert in the line-joined content.
  std::string joined;
  for (const std::string& line : p.lines) {
    joined += line;
    joined += '\n';
  }
  for (std::size_t at = joined.find("static_assert");
       at != std::string::npos; at = joined.find("static_assert", at + 1)) {
    const std::string window = joined.substr(at, 300);
    auto begin = std::sregex_iterator(window.begin(), window.end(), kSizeofRe);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      guarded->insert((*it)[1].str());
    }
  }
}

}  // namespace

std::vector<RuleInfo> rule_infos() {
  std::vector<RuleInfo> infos;
  for (const TokenRule& r : token_rules()) {
    infos.push_back(RuleInfo{r.id, r.summary, r.rationale});
  }
  infos.push_back(RuleInfo{
      "no-unordered-iteration-in-results",
      "iterating std::unordered_map/set while writing reports/CSV/JSON "
      "(or summing into reported floats) leaks hash order into results; "
      "sort keys first or use std::map at the boundary",
      "Hash order differs between runs, platforms and standard-library "
      "versions, so iterating an unordered container while emitting rows "
      "— or while summing floats that get reported — makes results "
      "nondeterministic. A money ledger's conservation sum once had "
      "exactly this bug. Sort keys at the boundary or use std::map."});
  infos.push_back(RuleInfo{
      "no-bare-catch-all",
      "a `catch (...)` handler that neither rethrows nor records what it "
      "caught (ledger/log/abort) silently swallows faults; contain them "
      "visibly or annotate with rit-lint: allow",
      "catch (...) erases the failure's identity; a handler that neither "
      "rethrows nor records turns every crash into silent data loss — a "
      "faulted trial that just disappears from the aggregate. The "
      "fault-tolerant runner catches everything but files each catch in "
      "a FaultLedger; anything quieter needs an annotated justification."});
  infos.push_back(RuleInfo{
      "merge-coverage-guard",
      "a struct with a self-merge `void merge(const T&)` must carry a "
      "static_assert(sizeof(T) == ...) field-coverage guard so a new "
      "field cannot be silently dropped from aggregation",
      "Parallel sweeps combine per-worker accumulators via merge(); a "
      "field added to the struct but not to merge() is silently dropped "
      "from every aggregate — the exact bug AggregateMetrics hit before "
      "PR 2. A static_assert on sizeof(T) next to the merge forces the "
      "author of the new field to revisit the merge."});
  infos.push_back(RuleInfo{
      "no-rng-in-parallel-region",
      "no Rng capture or draw inside a parallel_for_blocked callback — "
      "the blocked partition reorders execution across workers, so RNG "
      "order must stay serial (docs/scaling.md)",
      "The intra-trial parallel passes are bit-identical to serial only "
      "because every Rng draw happens before the parallel region: "
      "parallel_for_blocked partitions work across workers, so a stream "
      "drawn inside the callback would consume values in a "
      "thread-count-dependent order, and the same seed would produce "
      "different results at different --intra-threads. Draw everything "
      "the region needs up front (the Graph constructor keeps its edge "
      "draws serial for exactly this reason)."});
  infos.push_back(RuleInfo{
      "layer-violation",
      "an #include whose target module sits above the includer in the "
      "declared layering DAG (common/rng -> graph/tree -> core/stats -> "
      "sim/obs -> attack/baselines/platform -> cli/bench/tools)",
      "The layering DAG keeps the mechanism core free of sim/IO "
      "dependencies: core must stay a pure function of (config, seed) so "
      "the paper's guarantees are auditable in isolation, and lower "
      "tiers must stay reusable without dragging the world in. An "
      "include that reaches *up* the DAG inverts that — fix it by "
      "inverting the dependency or moving the shared code down. Two "
      "declared instrumentation edges (tree -> obs, core -> obs; the obs "
      "macros compile away under RIT_OBS_ENABLED=OFF) are part of the "
      "declared DAG, not violations of it."});
  infos.push_back(RuleInfo{
      "include-cycle",
      "a strongly connected component in the #include graph — headers in "
      "a cycle cannot be compiled stand-alone and their module boundary "
      "is fiction",
      "An #include cycle means no file in it can be understood (or "
      "compiled) without the others: the header self-sufficiency gate "
      "breaks, incremental rebuilds cascade, and the layering between "
      "the files is unenforceable. Break cycles with forward "
      "declarations or by moving the shared type down a layer."});
  infos.push_back(RuleInfo{
      "unused-include",
      "(report-only) IWYU-lite: a .cpp includes a repo header none of "
      "whose exported names appear in the file",
      "Every unnecessary include is a false dependency edge: it widens "
      "rebuilds and quietly erodes the layering the DAG rules enforce. "
      "The heuristic is lexical (does the includer mention any name the "
      "header or its re-exports declare?) and deliberately report-only: "
      "it never gates, it just points at candidates for removal."});
  return infos;
}

std::vector<Finding> scan(const std::vector<SourceFile>& files) {
  std::vector<Prepped> prepped;
  prepped.reserve(files.size());
  for (const SourceFile& f : files) prepped.push_back(internal::prep(f));

  std::map<std::string, const Prepped*> by_path;
  for (const Prepped& p : prepped) by_path[p.src->path] = &p;

  std::vector<Finding> findings;
  std::vector<MergeDef> merge_defs;
  std::set<std::string> guarded_types;
  for (const Prepped& p : prepped) {
    run_token_rules(p, &findings);
    run_unordered_iteration_rule(p, by_path, &findings);
    run_bare_catch_all_rule(p, &findings);
    run_rng_in_parallel_region_rule(p, &findings);
    collect_merge_info(p, &merge_defs, &guarded_types);
  }
  for (const MergeDef& def : merge_defs) {
    if (guarded_types.count(def.type) != 0) continue;
    internal::emit(
        *def.file, def.line, "merge-coverage-guard",
        "'" + def.type + "::merge' has no static_assert(sizeof(" +
            def.type +
            ") == ...) coverage guard; add one next to the merge "
            "definition so new fields cannot be dropped from aggregation",
        Severity::kError, &findings);
  }

  // Architecture rules over the whole scan set.
  internal::run_layering_rule(prepped, &findings);
  const internal::IncludeGraph graph =
      internal::build_include_graph(prepped);
  internal::run_include_cycle_rule(graph, &findings);
  internal::run_unused_include_rule(graph, &findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule;
                             }),
                 findings.end());
  return findings;
}

std::vector<Finding> scan_file(const SourceFile& file) {
  return scan(std::vector<SourceFile>{file});
}

std::vector<EscapeRecord> collect_escapes(
    const std::vector<SourceFile>& files) {
  // Only directives naming a real rule (or '*') count: an allow() with an
  // unknown id suppresses nothing, so it is not an escape — this also
  // keeps directive-shaped doc examples ("allow(<rule-id>)") out of the
  // inventory.
  std::set<std::string> known{"*"};
  for (const RuleInfo& info : rule_infos()) known.insert(info.id);
  std::vector<EscapeRecord> records;
  for (const SourceFile& f : files) {
    // Blank string literals but keep comments: a directive in a comment is
    // a real escape; directive-shaped *data* in a string literal (the lint
    // self-tests) is not. Build files have no string/comment ambiguity
    // that matters here — directives ride '#' comments.
    const std::string view =
        internal::classify(f.path) == internal::FileClass::kBuild
            ? f.content
            : internal::strip_strings_keep_comments(f.content);
    const internal::AllowSet allows =
        internal::parse_allows(internal::split_lines(view));
    for (const auto& [line, rules] : allows.lines) {
      for (const std::string& rule : rules) {
        if (known.count(rule) == 0) continue;
        records.push_back(EscapeRecord{f.path, line, rule, false});
      }
    }
    for (const std::string& rule : allows.file_rules) {
      if (known.count(rule) == 0) continue;
      records.push_back(EscapeRecord{f.path, 0, rule, true});
    }
  }
  std::sort(records.begin(), records.end(),
            [](const EscapeRecord& a, const EscapeRecord& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return records;
}

std::vector<SourceFile> collect_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  const fs::path base(root);

  auto want = [](const std::string& rel) {
    if (rel.find("tests/golden") != std::string::npos) return false;
    if (rel.find("tests/lint_fixtures") != std::string::npos) return false;
    auto ends_with = [&](const char* suf) {
      const std::string s(suf);
      return rel.size() >= s.size() &&
             rel.compare(rel.size() - s.size(), s.size(), s) == 0;
    };
    return ends_with(".h") || ends_with(".hpp") || ends_with(".cpp") ||
           ends_with(".cc") || ends_with(".cxx") ||
           ends_with("CMakeLists.txt") || ends_with(".cmake") ||
           ends_with(".sh");
  };

  auto add = [&](const fs::path& p) {
    std::error_code ec;
    const std::string rel = fs::relative(p, base, ec).generic_string();
    if (ec || !want(rel)) return;
    std::ifstream in(p, std::ios::binary);
    if (!in.good()) return;
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back(SourceFile{rel, ss.str()});
  };

  for (const char* dir : {"src", "bench", "tests", "tools", "examples",
                          "configs", "cmake"}) {
    const fs::path sub = base / dir;
    std::error_code ec;
    if (!fs::is_directory(sub, ec)) continue;
    for (fs::recursive_directory_iterator it(sub, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_regular_file(ec)) add(it->path());
    }
  }
  const fs::path top_cmake = base / "CMakeLists.txt";
  std::error_code ec;
  if (fs::is_regular_file(top_cmake, ec)) add(top_cmake);

  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

}  // namespace rit::lint
