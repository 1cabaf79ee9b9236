#include "sim/fault.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "common/record.h"

namespace rit::sim {

// Field-coverage guard for merge(): FaultLedger must stay exactly one
// vector of entries. A new field added without extending merge() would be
// silently dropped when per-worker ledgers fold together.
static_assert(sizeof(FaultLedger) == sizeof(std::vector<TrialFault>),
              "FaultLedger changed shape: update merge() in fault.cpp (and "
              "this static_assert) so no field is dropped");

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException:
      return "exception";
    case FaultKind::kNonFinite:
      return "non-finite";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kWorkerDeath:
      return "worker-death";
  }
  return "unknown";
}

FaultKind parse_fault_kind(const std::string& name) {
  if (name == "exception") return FaultKind::kException;
  if (name == "non-finite") return FaultKind::kNonFinite;
  if (name == "timeout") return FaultKind::kTimeout;
  if (name == "worker-death") return FaultKind::kWorkerDeath;
  RIT_CHECK_MSG(false, "unknown fault kind '" << name << "'");
  return FaultKind::kException;
}

void FaultLedger::record(std::uint64_t trial, std::uint64_t seed,
                         FaultKind kind, std::string phase,
                         std::string reason) {
  // Reasons land in line-oriented formats (checkpoint, CSV, markdown);
  // flatten any embedded newlines an exception message might carry.
  entries.push_back(TrialFault{trial, seed, kind, std::move(phase),
                               one_line(std::move(reason))});
}

void FaultLedger::merge(const FaultLedger& other) {
  entries.insert(entries.end(), other.entries.begin(), other.entries.end());
}

std::vector<TrialFault> FaultLedger::sorted_by_trial() const {
  std::vector<TrialFault> out = entries;
  std::stable_sort(out.begin(), out.end(),
                   [](const TrialFault& a, const TrialFault& b) {
                     return a.trial < b.trial;
                   });
  return out;
}

std::string FaultLedger::markdown(std::size_t max_entries) const {
  std::ostringstream os;
  const std::vector<TrialFault> ordered = sorted_by_trial();
  const std::size_t shown = std::min(ordered.size(), max_entries);
  for (std::size_t i = 0; i < shown; ++i) {
    const TrialFault& f = ordered[i];
    os << "- trial " << f.trial << " (seed " << f.seed << ", " << f.phase
       << "): " << to_string(f.kind) << " — " << f.reason << "\n";
  }
  if (ordered.size() > shown) {
    os << "- … and " << ordered.size() - shown << " more\n";
  }
  return os.str();
}

}  // namespace rit::sim
