// rit_lint CLI: scans the tree (or explicit files) for violations of the
// repo's determinism / portability / architecture invariants.
//
//   rit_lint --root <repo>             scan src/ bench/ tests/ tools/ ...
//   rit_lint --root <repo> a.cpp b.h   scan just those files (repo-relative)
//   rit_lint --format=text|sarif       output format (default text)
//   rit_lint --explain <rule>          print a rule's full rationale
//   rit_lint --list-rules              print every rule id + summary
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error. With sarif the
// findings go to stdout and the human summary to stderr, so the output
// stays machine-parseable (CI uploads the SARIF verbatim). Wired into
// ctest as the `lint_tree` test (label: lint) and into tools/check.sh.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "linter.h"
#include "output.h"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root <dir>] [--format=text|sarif]"
               " [--explain <rule>] [--list-rules] [file...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string explain_rule;
  std::vector<std::string> explicit_files;
  rit::lint::OutputFormat format = rit::lint::OutputFormat::kText;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) return usage(argv[0]);
      root = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      if (!rit::lint::parse_output_format(arg.substr(9), &format)) {
        std::cerr << "rit_lint: unknown format '" << arg.substr(9)
                  << "' (expected text or sarif)\n";
        return 2;
      }
    } else if (arg == "--format") {
      if (i + 1 >= argc) return usage(argv[0]);
      if (!rit::lint::parse_output_format(argv[++i], &format)) {
        std::cerr << "rit_lint: unknown format '" << argv[i]
                  << "' (expected text or sarif)\n";
        return 2;
      }
    } else if (arg == "--explain") {
      if (i + 1 >= argc) return usage(argv[0]);
      explain_rule = argv[++i];
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rit_lint: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      explicit_files.push_back(arg);
    }
  }

  if (!explain_rule.empty()) {
    for (const rit::lint::RuleInfo& info : rit::lint::rule_infos()) {
      if (info.id == explain_rule) {
        std::cout << info.id << "\n  " << info.summary << "\n\n"
                  << info.rationale << "\n";
        return 0;
      }
    }
    std::cerr << "rit_lint: unknown rule '" << explain_rule
              << "' (see --list-rules)\n";
    return 2;
  }

  if (list_rules) {
    for (const rit::lint::RuleInfo& info : rit::lint::rule_infos()) {
      std::cout << info.id << "\n    " << info.summary << "\n";
    }
    return 0;
  }

  std::vector<rit::lint::SourceFile> files;
  if (explicit_files.empty()) {
    files = rit::lint::collect_tree(root);
    if (files.empty()) {
      std::cerr << "rit_lint: no sources found under '" << root << "'\n";
      return 2;
    }
  } else {
    for (const std::string& path : explicit_files) {
      const std::string full =
          path.front() == '/' ? path : root + "/" + path;
      std::ifstream in(full, std::ios::binary);
      if (!in.good()) {
        std::cerr << "rit_lint: cannot read '" << full << "'\n";
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      files.push_back(rit::lint::SourceFile{path, ss.str()});
    }
  }

  const std::vector<rit::lint::Finding> findings = rit::lint::scan(files);
  if (format == rit::lint::OutputFormat::kSarif) {
    std::cout << rit::lint::render_sarif(findings);
  } else {
    std::cout << rit::lint::render_text(findings);
  }

  // Summary to stderr so sarif stdout stays machine-parseable.
  std::ostream& summary =
      format == rit::lint::OutputFormat::kText ? std::cout : std::cerr;
  summary << "rit_lint: " << findings.size() << " error(s) in "
          << files.size() << " file(s) scanned\n";
  return findings.empty() ? 0 : 1;
}
