#include "cli/args.h"

#include <limits>

#include "common/check.h"
#include "common/num_io.h"

namespace rit::cli {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    require_usage(arg.rfind("--", 0) == 0,
                  "expected --key=value argument, got: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::uint64_t Args::get_u64(const std::string& key, std::uint64_t def) {
  recognized_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const auto v = rit::parse_u64(it->second);
  require_usage(v.has_value(), "flag --" + key +
                                   " wants an unsigned integer, got '" +
                                   it->second + "'");
  return *v;
}

std::uint32_t Args::get_u32(const std::string& key, std::uint32_t def) {
  const std::uint64_t v = get_u64(key, def);
  require_usage(v <= std::numeric_limits<std::uint32_t>::max(),
                "flag --" + key + " wants at most 4294967295, got " +
                    format_u64(v));
  return static_cast<std::uint32_t>(v);
}

double Args::get_double(const std::string& key, double def) {
  recognized_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const auto v = rit::parse_double(it->second);
  require_usage(v.has_value(), "flag --" + key + " wants a number, got '" +
                                   it->second + "'");
  return *v;
}

bool Args::get_bool(const std::string& key, bool def) {
  recognized_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw CheckFailure("flag --" + key + " wants a boolean, got '" +
                     it->second + "'");
}

std::string Args::get_string(const std::string& key, const std::string& def) {
  recognized_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

void Args::finish() const {
  for (const auto& [key, value] : values_) {
    require_usage(recognized_.count(key) > 0, "unknown flag --" + key);
  }
}

std::string Args::usage() const {
  std::string out;
  for (const std::string& key : recognized_) out += "  --" + key + "\n";
  return out;
}

}  // namespace rit::cli
