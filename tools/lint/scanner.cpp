#include "scanner.h"

#include <cctype>
#include <utility>

namespace rit::lint {

// The one stripper: both the rule view (comments blanked) and the
// directive view (comments kept) come from this state machine, so the two
// can never disagree on where a string literal starts or ends. Every
// blanked character becomes a space and every newline survives, so line
// numbers and columns hold in both views.
std::string strip_comments_and_strings(const std::string& content,
                                       bool keep_comments) {
  std::string out;
  out.reserve(content.size());
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  } state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  const auto blank = [&out](char c) { out += c == '\n' ? '\n' : ' '; };
  const auto comment = [&](char c) {
    if (keep_comments) {
      out += c;
    } else {
      blank(c);
    }
  };

  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    const char next = i + 1 < n ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && (next == '/' || next == '*')) {
          state = next == '/' ? State::kLineComment : State::kBlockComment;
          comment(c);
          comment(next);
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !internal::is_word(content[i - 1]))) {
          // Raw string: R"delim( ... )delim"
          const std::size_t paren = content.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + content.substr(i + 2, paren - (i + 2)) + "\"";
            state = State::kRawString;
            for (std::size_t k = i; k <= paren; ++k) blank(content[k]);
            i = paren;
          } else {
            out += c;
          }
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'' && i > 0 && !internal::is_word(content[i - 1])) {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') state = State::kCode;
        comment(c);
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          comment(c);
          comment(next);
          ++i;
        } else {
          comment(c);
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          blank(c);
          blank(next);
          ++i;
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          blank(c);
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          out.append(raw_delim.size(), ' ');
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          blank(c);
        }
        break;
    }
  }
  return out;
}

namespace internal {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

FileClass classify(const std::string& path) {
  auto ends_with = [&](const char* suf) {
    const std::string s(suf);
    return path.size() >= s.size() &&
           path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("CMakeLists.txt") || ends_with(".cmake") ||
      ends_with(".sh")) {
    return FileClass::kBuild;
  }
  return FileClass::kCpp;
}

std::string strip_hash_comments(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  bool in_comment = false;
  for (char c : content) {
    if (c == '\n') {
      in_comment = false;
      out += '\n';
    } else if (c == '#') {
      in_comment = true;
      out += ' ';
    } else {
      out += in_comment ? ' ' : c;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::string normalize_ws(const std::string& line) {
  std::string out;
  out.reserve(line.size());
  bool prev_space = false;
  for (char c : line) {
    const bool space = c == ' ' || c == '\t';
    if (space) {
      if (!prev_space) out += ' ';
    } else {
      out += c;
    }
    prev_space = space;
  }
  return out;
}

bool token_matches_at(const std::string& line, std::size_t pos,
                      const std::string& token) {
  if (line.compare(pos, token.size(), token) != 0) return false;
  if (is_word(token.front()) && pos > 0 && is_word(line[pos - 1])) {
    return false;
  }
  const std::size_t end = pos + token.size();
  if (is_word(token.back()) && end < line.size() && is_word(line[end])) {
    return false;
  }
  return true;
}

bool line_has_token(const std::string& line, const std::string& token) {
  for (std::size_t pos = line.find(token); pos != std::string::npos;
       pos = line.find(token, pos + 1)) {
    if (token_matches_at(line, pos, token)) return true;
  }
  return false;
}

std::vector<Token> tokenize(const std::string& stripped) {
  std::vector<Token> tokens;
  std::size_t line = 1;
  const std::size_t n = stripped.size();
  for (std::size_t i = 0; i < n;) {
    const char c = stripped[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (c == '\n') ++line;
      ++i;
      continue;
    }
    std::size_t len = 1;
    if (is_word(c)) {
      while (i + len < n && is_word(stripped[i + len])) ++len;
    } else if (stripped.compare(i, 2, "::") == 0) {
      len = 2;
    } else if (stripped.compare(i, 3, "...") == 0) {
      len = 3;
    }
    tokens.push_back(Token{stripped.substr(i, len), line});
    i += len;
  }
  return tokens;
}

bool is_word_token(const std::string& text) {
  return !text.empty() && is_word(text[0]);
}

const std::string& text_on_line(const std::vector<Token>& tokens,
                                std::size_t k, std::size_t line) {
  static const std::string kNone;
  return k < tokens.size() && tokens[k].line == line ? tokens[k].text
                                                     : kNone;
}

std::size_t matching_close(const std::vector<Token>& tokens, std::size_t open,
                           const char* open_text, const char* close_text) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == open_text) ++depth;
    if (tokens[i].text == close_text && --depth == 0) return i;
  }
  return tokens.size();
}

bool AllowSet::allows(const std::string& rule, std::size_t line) const {
  if (file_rules.count(rule) != 0 || file_rules.count("*") != 0) {
    return true;
  }
  // A directive covers its own line and the line after it, so a
  // standalone "// rit-lint: allow(x)" comment shields the next line.
  for (std::size_t l = line > 1 ? line - 1 : line; l <= line; ++l) {
    auto it = lines.find(l);
    if (it != lines.end() &&
        (it->second.count(rule) != 0 || it->second.count("*") != 0)) {
      return true;
    }
  }
  return false;
}

namespace {

void parse_rule_list(const std::string& text, std::set<std::string>* out) {
  std::string cur;
  for (char c : text) {
    if (c == ',' || c == ' ' || c == '\t') {
      if (!cur.empty()) out->insert(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out->insert(cur);
}

}  // namespace

AllowSet parse_allows(const SourceFile& f) {
  // Directives are parsed from a view with string literals blanked, so
  // directive-shaped data in a literal (the lint self-tests) shields
  // nothing. Build files have no string/comment ambiguity that matters.
  const std::vector<std::string> lines = split_lines(
      classify(f.path) == FileClass::kCpp
          ? strip_comments_and_strings(f.content, /*keep_comments=*/true)
          : f.content);
  AllowSet allows;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t tag = line.find("rit-lint:");
    if (tag == std::string::npos) continue;
    const std::string rest = line.substr(tag + 9);
    for (const auto& [kw, file_scope] :
         {std::pair<const char*, bool>{"allow-file(", true},
          std::pair<const char*, bool>{"allow(", false}}) {
      std::size_t at = rest.find(kw);
      if (at == std::string::npos) continue;
      at += std::string(kw).size();
      const std::size_t close = rest.find(')', at);
      if (close == std::string::npos) continue;
      const std::string list = rest.substr(at, close - at);
      if (file_scope) {
        parse_rule_list(list, &allows.file_rules);
      } else {
        parse_rule_list(list, &allows.lines[i + 1]);
      }
    }
  }
  return allows;
}

namespace {

const char* const kResultPathHints[] = {"report", "csv",    "json",
                                        "_io",    "export", "render",
                                        "statement", "svg", "table"};

// The quoted target of `#include "..."` on a raw line, or empty for
// `#include <...>`. The tokens decide that the directive is live code (a
// commented-out include has none); the raw line supplies the path, which
// stripping blanked.
std::string quoted_include_target(const std::string& raw) {
  std::size_t at = raw.find("include");
  if (at == std::string::npos) return {};
  at += 7;
  while (at < raw.size() && (raw[at] == ' ' || raw[at] == '\t')) ++at;
  if (at >= raw.size() || raw[at] != '"') return {};
  const std::size_t close = raw.find('"', at + 1);
  if (close == std::string::npos) return {};
  return raw.substr(at + 1, close - at - 1);
}

}  // namespace

Prepped prep(const SourceFile& f) {
  Prepped p;
  p.src = &f;
  p.file_class = classify(f.path);
  const bool cpp = p.file_class == FileClass::kCpp;
  p.allows = parse_allows(f);
  const std::string stripped = cpp ? strip_comments_and_strings(f.content)
                                   : strip_hash_comments(f.content);
  for (const std::string& line : split_lines(stripped)) {
    p.lines.push_back(normalize_ws(line));
  }
  if (cpp) {
    p.tokens = tokenize(stripped);
    const std::vector<Token>& t = p.tokens;
    std::vector<std::string> raw_lines;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      const bool line_start = i == 0 || t[i - 1].line != t[i].line;
      if (!line_start || t[i].text != "#" || t[i + 1].text != "include" ||
          t[i + 1].line != t[i].line) {
        continue;
      }
      if (raw_lines.empty()) raw_lines = split_lines(f.content);
      std::string target = quoted_include_target(raw_lines[t[i].line - 1]);
      if (!target.empty()) {
        p.includes.push_back(IncludeDirective{t[i].line, std::move(target)});
      }
    }
  }
  for (const char* hint : kResultPathHints) {
    if (f.path.find(hint) != std::string::npos) p.result_path = true;
  }
  if (!p.result_path) {
    for (const std::string& line : p.lines) {
      if (line_has_token(line, "std::ostream") ||
          line_has_token(line, "std::ofstream")) {
        p.result_path = true;
        break;
      }
    }
  }
  return p;
}

bool path_contains_any(const std::string& path,
                       const std::vector<const char*>& subs) {
  for (const char* sub : subs) {
    if (path.find(sub) != std::string::npos) return true;
  }
  return false;
}

void emit(const Prepped& p, std::size_t line_no, const std::string& rule,
          const std::string& message, std::vector<Finding>* out) {
  if (p.allows.allows(rule, line_no)) return;
  out->push_back(Finding{p.src->path, line_no, rule, message});
}

}  // namespace internal
}  // namespace rit::lint
