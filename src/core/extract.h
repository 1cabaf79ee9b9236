// Extract (Algorithm 2): flattens per-user asks (t_j, k_j, a_j) into the
// unit-ask vector alpha for one task type, remembering the owner map
// lambda(w) = j. RIT's auction loop uses the run form (one entry per user,
// not per unit ask); the unit vector serves the baselines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"

namespace rit::core {

struct ExtractedAsks {
  /// alpha: one entry per unit ask, value a_j repeated k times.
  std::vector<double> values;
  /// lambda: owner[w] is the index of the user that unit ask w came from.
  std::vector<std::uint32_t> owner;

  std::size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
};

/// Plain Algorithm 2: expands ask j into asks[j].quantity unit asks when
/// asks[j].type == type.
ExtractedAsks extract(TaskType type, std::span<const Ask> asks);

/// Expands ask j into remaining_quantity[j] unit asks (the paper's k'_j,
/// capability not yet consumed by earlier CRA rounds), which must be
/// elementwise <= the asked quantity.
ExtractedAsks extract_remaining(TaskType type, std::span<const Ask> asks,
                                std::span<const std::uint32_t> remaining_quantity);

/// Per-type CSR over one ask vector, built once per auction so the
/// multi-round loop can extract type tau_i by scanning only tau_i's askers
/// instead of all N asks every round (the seed path's O(N * rounds * types)
/// term, which dominates at millions of users). Within a type the users
/// stay in ascending index order, so the runs lay out alpha exactly as the
/// full-scan path does. Values never change during an auction, so build()
/// also sorts each type's slots by value once, for every CRA round of the
/// auction to walk. build() reuses capacity across auctions.
struct AskTypeIndex {
  std::vector<std::uint32_t> offsets;   ///< per type: [offsets[t], offsets[t+1])
  std::vector<std::uint32_t> user;      ///< flat ask indices, ascending per type
  std::vector<double> value;            ///< value[i] = asks[user[i]].value
  std::vector<std::uint32_t> quantity;  ///< quantity[i] = asks[user[i]].quantity
  /// Per type, the slots [offsets[t], offsets[t+1]) in ascending (value,
  /// user) order: equal values keep their user order.
  std::vector<std::uint32_t> by_value;
  /// Scratch of the value sort: per-bucket counts, then bucket ends.
  std::vector<std::uint32_t> buckets;

  std::uint32_t num_types() const {
    return offsets.empty() ? 0 : static_cast<std::uint32_t>(offsets.size() - 1);
  }
  /// Rebuilds for `asks`; every ask's type must be < num_types and every
  /// value finite and > 0 (run validate_asks first).
  void build(std::uint32_t num_types, std::span<const Ask> asks);
};

/// alpha in run form: runs[r] is the k'_j equal unit asks of user
/// owner[r], which the CRA round (run_cra_runs) works on.
struct ExtractedRuns {
  std::vector<AskRun> runs;
  std::vector<std::uint32_t> owner;
  /// The indices into `runs` in ascending (value, run) order: the type's
  /// by_value order with the users that have no capacity left dropped.
  std::vector<std::uint32_t> by_value;
  /// Scratch: the run of each of the type's slots (all ones when its
  /// user has no capacity left), which by_value is gathered through.
  std::vector<std::uint32_t> run_of_slot;
};

/// Extract over the index in run form: one run per user of `type` with
/// capacity left, k'_j = asks[j].quantity - allocation[j] > 0, users
/// ascending, over the alpha indices of extract_remaining's unit vector
/// for those k'_j, plus their value order. `allocation[j]` is what user j
/// already won and must not exceed its asked quantity. O(users of `type`)
/// per round, no unit expansion and no sort; a reused `out` stops
/// allocating (core::RitWorkspace).
void extract_runs_into(TaskType type, const AskTypeIndex& index,
                       std::span<const std::uint32_t> allocation,
                       ExtractedRuns& out);

}  // namespace rit::core
