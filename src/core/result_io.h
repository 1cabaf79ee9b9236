// Experiment-record serialization.
//
// A mechanism whose payments move real money needs an audit trail: the
// exact inputs (job, sealed asks, incentive tree) and outputs (allocation,
// payments) of a run, in a format that round-trips bit-exactly (doubles are
// stored as C hex-float literals) so audit_payments() can re-derive and
// verify the payments years later. The format is line-oriented text —
// greppable, diffable, versioned with a header.
#pragma once

#include <string>
#include <vector>

#include "core/rit.h"
#include "core/types.h"
#include "tree/incentive_tree.h"

namespace rit::core {

/// Everything needed to re-derive and verify one mechanism run.
struct ExperimentRecord {
  Job job{std::vector<std::uint32_t>{1}};
  std::vector<Ask> asks;
  /// The incentive tree as its parent vector (participant j at node j+1).
  std::vector<std::uint32_t> tree_parents;
  /// The discount base the payment phase used.
  double discount_base{0.5};
  RitResult result;

  tree::IncentiveTree tree() const {
    return tree::IncentiveTree(tree_parents);
  }
};

/// Writes the record atomically. Deterministic output: same record, same
/// bytes.
void write_record_file(const ExperimentRecord& record,
                       const std::string& path);

/// Parses a record file; throws CheckFailure when it cannot be read, on
/// version/format errors or internally inconsistent sizes. Round-trips
/// doubles bit-exactly.
ExperimentRecord read_record_file(const std::string& path);

}  // namespace rit::core
