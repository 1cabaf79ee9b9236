// Tiny --key=value argument parser for benches and examples.
//
// Usage:
//   cli::Args args(argc, argv);
//   const auto trials = args.get_u64("trials", 10);
//   args.finish();  // throws on unrecognized flags (catches typos)
//
// A bench's --help prints usage() (every flag it queried) and exits 0.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace rit::cli {

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Typed getters; each records the key as recognized. A flag given
  /// without "=value" (e.g. --full) reads as boolean true.
  std::uint64_t get_u64(const std::string& key, std::uint64_t def);
  /// get_u64 for a 32-bit setting: a value above 2^32 - 1 is a usage
  /// error, never wrapped.
  std::uint32_t get_u32(const std::string& key, std::uint32_t def);
  double get_double(const std::string& key, double def);
  bool get_bool(const std::string& key, bool def);
  std::string get_string(const std::string& key, const std::string& def);

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Throws CheckFailure("unknown flag --KEY") if a provided flag was
  /// never queried.
  void finish() const;

  /// The flags queried so far, one "  --key" line each, sorted.
  std::string usage() const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> recognized_;
};

}  // namespace rit::cli
