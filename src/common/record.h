// The one codec for the line-oriented record files: checkpoints (with
// their `.aborted` forensics and the shard result payload), `ritcs-record`
// experiment records and `.ritcase` fuzz repros. Writers format numbers
// with common/num_io.h and seal() the checksummed formats. Every reader
// goes through RecordReader, whose contract is:
//   * a line is `key` or `key value...`, values split on whitespace, and
//     empty lines are skipped;
//   * integers are strict decimal, checked against the field's width: a
//     sign, junk or overflow is an error, never a wrap or a truncation;
//   * a count is checked against the lines left before anyone reserves
//     from it;
//   * every defect throws CheckFailure naming the label (and the line, as
//     "<label>: line N: <what>"), and nothing else escapes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rit {

/// Empty optional when the file cannot be opened.
std::optional<std::string> slurp_file(const std::string& path);

/// `text` with each '\n' and '\r' replaced by a space.
std::string one_line(std::string text);

/// Appends the FNV-1a footer line "checksum <fnv1a64(body)>".
std::string seal(std::string body);
/// The body of a seal()ed text; CheckFailure "<label>: ..." when the
/// footer is missing or does not match.
std::string_view unseal(std::string_view sealed, const std::string& label);

/// The whitespace-separated words of `text`, as views into it.
std::vector<std::string_view> split_words(std::string_view text);

/// Keyed-line reader over text that must outlive it.
class RecordReader {
 public:
  RecordReader(std::string_view text, std::string label);

  bool done() { return peek().empty(); }
  /// The next non-empty line, not consumed ("" at the end).
  std::string_view peek();
  /// Everything after the lines consumed so far.
  std::string_view rest() const { return text_.substr(pos_); }

  /// The next line must be exactly `magic`.
  void header(std::string_view magic);
  /// Consumes the next line, which must start with the word `key`;
  /// returns what follows it and one separator, as written.
  std::string_view line(std::string_view key);
  std::vector<std::string_view> tokens(std::string_view key);
  /// The first word of line(key); there must be one.
  std::string_view value(std::string_view key);
  std::uint64_t u64(std::string_view key) { return as_u64(value(key), key); }
  std::uint32_t u32(std::string_view key) { return as_u32(value(key), key); }
  double hex_double(std::string_view key) {
    return as_double(value(key), key);
  }
  /// `n`, if `n` entries of `lines_each` lines fit in the lines left.
  std::uint64_t count(std::uint64_t n, std::string_view what,
                      std::size_t lines_each = 1) const;

  std::uint64_t as_u64(std::string_view word, std::string_view what) const;
  std::uint32_t as_u32(std::string_view word, std::string_view what) const;
  double as_double(std::string_view word, std::string_view what) const;

  /// Throws CheckFailure "<label>: line N: <what>", N the line last read.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::string_view text_;
  std::string label_;
  std::size_t pos_{0};
  std::size_t line_no_{0};
  std::size_t total_lines_{0};
};

}  // namespace rit
