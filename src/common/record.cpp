#include "common/record.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/hash.h"
#include "common/num_io.h"

namespace rit {

namespace {

constexpr std::string_view kSpace = " \t\r\v\f";
constexpr std::string_view kChecksum = "checksum ";

std::string quoted(std::string_view s) { return "'" + std::string(s) + "'"; }

}  // namespace

std::optional<std::string> slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  std::replace(text.begin(), text.end(), '\r', ' ');
  return text;
}

std::string seal(std::string body) {
  body += std::string(kChecksum) + format_u64(fnv1a64(body)) + "\n";
  return body;
}

std::string_view unseal(std::string_view sealed, const std::string& label) {
  // The footer is the last line that starts with "checksum "; the sum
  // covers every byte before it.
  const std::size_t at = sealed.rfind("\n" + std::string(kChecksum));
  const std::string_view footer =
      at == sealed.npos ? "" : sealed.substr(at + 1 + kChecksum.size());
  const std::vector<std::string_view> words =
      split_words(footer.substr(0, footer.find('\n')));
  const std::optional<std::uint64_t> want =
      words.empty() ? std::nullopt : parse_u64(words.front());
  if (!want || sealed.back() != '\n') {
    throw CheckFailure(label + ": missing checksum footer (truncated file?)");
  }
  if (fnv1a64(sealed.substr(0, at + 1)) != *want) {
    throw CheckFailure(label + ": checksum mismatch (corrupt file)");
  }
  return sealed.substr(0, at + 1);
}

std::vector<std::string_view> split_words(std::string_view text) {
  std::vector<std::string_view> words;
  for (std::size_t i = text.find_first_not_of(kSpace); i < text.size();
       i = text.find_first_not_of(kSpace, i)) {
    const std::size_t end =
        std::min(text.find_first_of(kSpace, i), text.size());
    words.push_back(text.substr(i, end - i));
    i = end;
  }
  return words;
}

RecordReader::RecordReader(std::string_view text, std::string label)
    : text_(text),
      label_(std::move(label)),
      total_lines_(static_cast<std::size_t>(
                       std::count(text.begin(), text.end(), '\n')) +
                   (text.empty() || text.back() == '\n' ? 0 : 1)) {}

std::string_view RecordReader::peek() {
  for (; pos_ < text_.size() && text_[pos_] == '\n'; ++pos_) ++line_no_;
  const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
  return text_.substr(pos_, end - pos_);
}

void RecordReader::header(std::string_view magic) {
  if (!split_words(line(magic)).empty()) fail("bad header");
}

std::string_view RecordReader::line(std::string_view key) {
  const std::string_view l = peek();
  if (l.empty()) fail("unexpected end of input, wanted " + quoted(key));
  pos_ = std::min(pos_ + l.size() + 1, text_.size());
  ++line_no_;
  const std::string_view s =
      l.substr(std::min(l.find_first_not_of(kSpace), l.size()));
  if (s.substr(0, key.size()) != key ||
      (s.size() > key.size() && kSpace.find(s[key.size()]) == s.npos)) {
    fail("expected " + quoted(key) + ", found " + quoted(l));
  }
  return s.substr(std::min(key.size() + 1, s.size()));
}

std::vector<std::string_view> RecordReader::tokens(std::string_view key) {
  return split_words(line(key));
}

std::string_view RecordReader::value(std::string_view key) {
  const std::vector<std::string_view> words = tokens(key);
  if (words.empty()) fail(quoted(key) + " wants a value");
  return words.front();
}

std::uint64_t RecordReader::count(std::uint64_t n, std::string_view what,
                                  std::size_t lines_each) const {
  const std::size_t left = total_lines_ - line_no_;
  if (n > left / std::max<std::size_t>(lines_each, 1)) {
    fail(quoted(what) + " counts " + format_u64(n) +
         " entries, more than the " + format_u64(left) +
         " lines left can hold");
  }
  return n;
}

std::uint64_t RecordReader::as_u64(std::string_view word,
                                   std::string_view what) const {
  const std::optional<std::uint64_t> v = parse_u64(word);
  if (!v) fail("bad integer for " + quoted(what) + ": " + quoted(word));
  return *v;
}

std::uint32_t RecordReader::as_u32(std::string_view word,
                                   std::string_view what) const {
  const std::optional<std::uint32_t> v = parse_u32(word);
  if (!v) fail("bad 32-bit integer for " + quoted(what) + ": " + quoted(word));
  return *v;
}

double RecordReader::as_double(std::string_view word,
                               std::string_view what) const {
  const std::optional<double> v = parse_double(word);
  if (!v) fail("bad double for " + quoted(what) + ": " + quoted(word));
  return *v;
}

void RecordReader::fail(const std::string& what) const {
  throw CheckFailure(label_ + ": line " + format_u64(line_no_) + ": " + what);
}

}  // namespace rit
