// Internal lexical layer of the rit_lint engine: the one comment/string
// stripper, line bookkeeping, word-bounded line matching, the token
// stream, allowlist directives, and the per-file view (`Prepped`) every
// rule runs against.
//
// This header is internal to tools/lint/ — the public surface is linter.h.
// The split keeps the engine honest about its layers: scanner (this file)
// knows nothing about rules; include_graph.h builds the cross-file
// dependency graph on top of `Prepped`; linter.cpp owns the rule table;
// output.h renders findings.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "linter.h"

namespace rit::lint::internal {

bool is_word(char c);

/// C++ sources vs build files (CMake / shell): different comment syntax,
/// different rule set.
enum class FileClass { kCpp, kBuild };

FileClass classify(const std::string& path);

/// Build files (cmake, sh) only have '#' line comments; their allow
/// directives are parsed from the raw content.
std::string strip_hash_comments(const std::string& content);

std::vector<std::string> split_lines(const std::string& s);

/// Collapses runs of whitespace so multi-space tokens ("long double")
/// match regardless of alignment.
std::string normalize_ws(const std::string& line);

bool token_matches_at(const std::string& line, std::size_t pos,
                      const std::string& token);

bool line_has_token(const std::string& line, const std::string& token);

// ---------------------------------------------------------------------------
// Token stream
// ---------------------------------------------------------------------------

/// One lexical token of stripped C++: a word (identifier, keyword or
/// number: a maximal run of [A-Za-z0-9_]) or one punctuation character,
/// except that `::` and `...` are single tokens. `line` is 1-based.
struct Token {
  std::string text;
  std::size_t line{0};
};

std::vector<Token> tokenize(const std::string& stripped);

bool is_word_token(const std::string& text);

/// Text of tokens[k] when it sits on `line`, else "" (also past the end),
/// for token patterns that must not span lines.
const std::string& text_on_line(const std::vector<Token>& tokens,
                                std::size_t k, std::size_t line);

/// Index of the token closing the bracket opened at `open` (whose text is
/// `open_text`), or tokens.size() when it never closes.
std::size_t matching_close(const std::vector<Token>& tokens, std::size_t open,
                           const char* open_text, const char* close_text);

// ---------------------------------------------------------------------------
// Allowlist directives
// ---------------------------------------------------------------------------

struct AllowSet {
  std::set<std::string> file_rules;                    // allow-file(...)
  std::map<std::size_t, std::set<std::string>> lines;  // line -> rules
  bool allows(const std::string& rule, std::size_t line) const;
};

/// The file's allow directives, read from its comments: C++ string
/// literals are blanked first, so directive-shaped data shields nothing.
AllowSet parse_allows(const SourceFile& f);

// ---------------------------------------------------------------------------
// Per-file view
// ---------------------------------------------------------------------------

/// One `#include "..."` directive. `target` is the quoted text verbatim
/// ("core/rit.h"); resolution against the scan set happens in
/// include_graph.cpp.
struct IncludeDirective {
  std::size_t line{0};
  std::string target;
};

struct Prepped {
  const SourceFile* src{nullptr};
  FileClass file_class{FileClass::kCpp};
  std::vector<std::string> lines;  // stripped + whitespace-normalized
  std::vector<Token> tokens;       // C++ files only
  AllowSet allows;                 // from comments, never string literals
  bool result_path{false};
  std::vector<IncludeDirective> includes;  // quoted includes only
};

Prepped prep(const SourceFile& f);

bool path_contains_any(const std::string& path,
                       const std::vector<const char*>& subs);

/// Appends a finding unless an allow directive shields it.
void emit(const Prepped& p, std::size_t line_no, const std::string& rule,
          const std::string& message, std::vector<Finding>* out);

}  // namespace rit::lint::internal
