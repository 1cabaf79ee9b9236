// Hostile-input probes shared by the record reader tests. Each reader must
// end every probe in a clean rejection: CheckFailure, or an empty optional
// / ok == false where its API says so. An escaping std::out_of_range or
// std::length_error, or a value silently narrowed into range, fails.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <string>

#include "common/check.h"
#include "common/hash.h"
#include "common/num_io.h"

namespace rit::hostile {

/// A count no input backs (2^60): reserving from it throws length_error.
inline const std::string kHugeCount = "1152921504606846976";
/// Just past a u32 field, and the value a narrowing cast reads as 1.
inline const std::string kU32Overflow = "4294967296";
inline const std::string kU32Wrap = "4294967297";

/// One hostile input: the first line keyed `key` becomes `line`.
struct Probe {
  const char* name;
  const char* key;
  std::string line;
};

/// How a reader ended on one input: "accepted", "rejected" (it returned
/// false), "CheckFailure", or "escaped: <what>" for any other exception.
template <typename Parse>
std::string read_outcome(Parse&& parse) {
  try {
    return parse() ? "accepted" : "rejected";
  } catch (const CheckFailure&) {
    return "CheckFailure";
  } catch (const std::exception& e) {
    return std::string("escaped: ") + e.what();
  }
}

/// `text` with its first line keyed `key` replaced by `line`.
inline std::string replace_key(const std::string& text, const std::string& key,
                               const std::string& line) {
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t end = std::min(text.find('\n', at), text.size());
    const std::string current = text.substr(at, end - at);
    if (current == key || current.rfind(key + " ", 0) == 0) {
      return text.substr(0, at) + line + text.substr(end);
    }
    at = end + 1;
  }
  ADD_FAILURE() << "no line keyed '" << key << "' in:\n" << text;
  return text;
}

/// `body` with the checkpoint checksum footer, so a probe reaches the
/// structured parse instead of stopping at the checksum. Spelled out here,
/// not through rit::seal, so the probes do not lean on the code they test.
inline std::string with_footer(const std::string& body) {
  return body + "checksum " + format_u64(fnv1a64(body)) + "\n";
}

/// A sealed text without its checksum footer.
inline std::string without_footer(const std::string& sealed) {
  return sealed.substr(0, sealed.rfind("checksum "));
}

}  // namespace rit::hostile
