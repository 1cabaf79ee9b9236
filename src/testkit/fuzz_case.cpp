#include "testkit/fuzz_case.h"

#include <sstream>
#include <string_view>
#include <utility>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/num_io.h"
#include "common/record.h"

namespace rit::testkit {
namespace {

constexpr const char* kMagic = "ritcs-fuzzcase v2";

// Each enum's on-disk names, shared by the writer and the reader.
template <typename E>
using Names = std::pair<std::string_view, E>[2];
constexpr Names<core::PriceMode> kPriceNames = {
    {"consensus", core::PriceMode::kConsensus},
    {"order", core::PriceMode::kOrderStatistic}};
constexpr Names<core::RoundBudgetPolicy> kPolicyNames = {
    {"theoretical", core::RoundBudgetPolicy::kTheoretical},
    {"completion", core::RoundBudgetPolicy::kRunToCompletion}};

template <typename E>
std::string_view name_of(const Names<E>& names, E e) {
  return names[0].second == e ? names[0].first : names[1].first;
}

/// Everything after the checksum line except the signature line. The
/// checksum and the case fingerprint both hash exactly this text, so the
/// identity of a case is independent of shrink/repro metadata.
std::string payload_text(const FuzzCase& c) {
  std::ostringstream out;
  out << "seed " << format_u64(c.mech_seed) << "\n";
  out << "demand " << format_u64(c.demand.size());
  for (std::uint32_t d : c.demand) out << " " << format_u64(d);
  out << "\n";
  out << "asks " << format_u64(c.asks.size()) << "\n";
  for (std::size_t j = 0; j < c.asks.size(); ++j) {
    out << "ask " << format_u64(c.asks[j].type.value) << " "
        << format_u64(c.asks[j].quantity) << " "
        << format_hex_double(c.asks[j].value) << " "
        << format_hex_double(c.costs[j]) << " " << format_u64(c.parents[j])
        << "\n";
  }
  out << "h " << format_hex_double(c.config.h) << "\n";
  out << "discount " << format_hex_double(c.config.discount_base) << "\n";
  out << "gridbase " << format_hex_double(c.config.consensus_log_base)
      << "\n";
  out << "price " << name_of(kPriceNames, c.config.price_mode) << "\n";
  out << "policy " << name_of(kPolicyNames, c.config.round_budget_policy)
      << "\n";
  out << "zero " << format_u64(c.config.zero_on_failure ? 1 : 0) << "\n";
  return out.str();
}

template <typename E>
E read_enum(RecordReader& r, std::string_view key, const Names<E>& names) {
  const std::string_view v = r.value(key);
  if (v != names[0].first && v != names[1].first) r.fail("unknown value");
  return v == names[0].first ? names[0].second : names[1].second;
}

/// parse_case's reader: lines in any order, CheckFailure on any defect.
FuzzCase read_case(std::string_view text) {
  RecordReader r(text, "fuzz case");
  r.header(kMagic);
  const std::uint64_t checksum = r.u64("checksum");
  FuzzCase c;
  core::RitConfig& cfg = c.config;
  std::string payload;
  std::optional<std::uint64_t> asks;
  while (!r.done()) {
    const auto words = split_words(r.peek());
    const std::string key(words.empty() ? "" : words.front());
    if (key == "sig") {
      c.signature = std::string(r.line(key));
      continue;  // metadata: outside the checksummed payload
    }
    payload.append(r.peek()).push_back('\n');
    if (key == "seed") {
      c.mech_seed = r.u64(key);
    } else if (key == "demand") {
      const auto t = r.tokens(key);
      if (t.empty() || r.as_u64(t[0], key) != t.size() - 1) {
        r.fail("demand count does not match its values");
      }
      for (std::size_t i = 1; i < t.size(); ++i) {
        c.demand.push_back(r.as_u32(t[i], key));
      }
    } else if (key == "asks") {
      asks = r.u64(key);
    } else if (key == "ask") {
      const auto t = r.tokens(key);
      if (t.size() != 5) r.fail("ask wants 5 fields");
      c.asks.push_back(core::Ask{TaskType{r.as_u32(t[0], "ask type")},
                                 r.as_u32(t[1], "ask quantity"),
                                 r.as_double(t[2], "ask value")});
      c.costs.push_back(r.as_double(t[3], "ask cost"));
      c.parents.push_back(r.as_u32(t[4], "ask parent"));
    } else if (key == "h") {
      cfg.h = r.hex_double(key);
    } else if (key == "discount") {
      cfg.discount_base = r.hex_double(key);
    } else if (key == "gridbase") {
      cfg.consensus_log_base = r.hex_double(key);
    } else if (key == "price") {
      cfg.price_mode = read_enum(r, key, kPriceNames);
    } else if (key == "policy") {
      cfg.round_budget_policy = read_enum(r, key, kPolicyNames);
    } else if (key == "zero") {
      const std::uint64_t v = r.u64(key);
      if (v > 1) r.fail("zero wants 0 or 1");
      cfg.zero_on_failure = v == 1;
    } else {
      r.fail("unknown key '" + key + "'");
    }
  }
  if (!asks || c.asks.size() != *asks) r.fail("asks count mismatch");
  if (fnv1a64(payload) != checksum) r.fail("checksum mismatch");
  return c;
}

}  // namespace

std::string serialize_case(const FuzzCase& c) {
  RIT_CHECK(c.costs.size() == c.asks.size());
  RIT_CHECK(c.parents.size() == c.asks.size());
  const std::string payload = payload_text(c);
  std::ostringstream out;
  out << kMagic << "\n";
  out << "checksum " << format_u64(fnv1a64(payload)) << "\n";
  out << payload;
  if (!c.signature.empty()) out << "sig " << c.signature << "\n";
  return out.str();
}

std::uint64_t case_hash(const FuzzCase& c) {
  return fnv1a64(payload_text(c));
}

std::optional<FuzzCase> parse_case(const std::string& text) {
  try {
    return read_case(text);
  } catch (const CheckFailure&) {
    return std::nullopt;
  }
}

std::optional<FuzzCase> load_case_file(const std::string& path) {
  const std::optional<std::string> text = slurp_file(path);
  if (!text) return std::nullopt;
  return parse_case(*text);
}

void write_case_file(const std::string& path, const FuzzCase& c) {
  write_file_atomic(path, serialize_case(c));
}

}  // namespace rit::testkit
