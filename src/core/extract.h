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

/// Per-type CSR over one ask vector, built once per auction so the
/// multi-round loop can extract type tau_i by scanning only tau_i's askers
/// instead of all N asks every round (the seed path's O(N * rounds * types)
/// term, which dominates at millions of users). Within a type the users
/// stay in ascending index order, so the runs lay out alpha exactly as the
/// full-scan path does. Values never change during an auction, so each
/// type's slots are put in value order once per auction, and only as far
/// as a CRA round reads them: build() scatters them into value buckets,
/// sorts the buckets of more than two and lists the pairs, and
/// sort_through() orders a pair when a round's band first reaches it.
/// build() reuses capacity across auctions.
struct AskTypeIndex {
  std::vector<std::uint32_t> offsets;   ///< per type: [offsets[t], offsets[t+1])
  std::vector<std::uint32_t> user;      ///< flat ask indices, ascending per type
  std::vector<double> value;            ///< value[i] = asks[user[i]].value
  std::vector<std::uint32_t> quantity;  ///< quantity[i] = asks[user[i]].quantity
  /// Per type, the slots [offsets[t], offsets[t+1]) by ascending bucket
  /// floor(value * scale[t]) of 2n (n the type's slots; the top value
  /// lands in the last one); a bucket of more than two slots is sorted by
  /// value, and a pair is left in slot order. The bucket is monotone in
  /// the value, so up to sorted_end[t] this is the ascending (value, user)
  /// order: equal values keep their user order.
  std::vector<std::uint32_t> by_value;
  /// The pair list, one bit per by_value position: set at the first of
  /// the two slots of each bucket of two, which are the only unsorted
  /// entries build() leaves (about 15% of a spread book's slots). Its
  /// size is fixed by the ask count, 1/8 byte per ask, so a rebuild of an
  /// index at least as big keeps its capacity.
  std::vector<std::uint64_t> pair_start;
  /// Per type: where sort_through() resumes. Every pair before it is
  /// sorted, so by_value[offsets[t], sorted_end[t]) is in final order;
  /// after a sort_through() it is the first unsorted pair, or the type's
  /// end once all are sorted.
  std::vector<std::uint32_t> sorted_end;
  /// Per type: the bucket scale, 2n / max value (0 when that overflows,
  /// which puts every slot in one bucket).
  std::vector<double> scale;
  /// Per type: 1 when two of its asks have the same value. Exact: equal
  /// values share a bucket, so build() finds every tie between neighbours
  /// of by_value once the buckets of more than two are sorted.
  std::vector<std::uint8_t> tied;
  /// Scratch of build()'s scatter: per-bucket counts, then bucket ends.
  std::vector<std::uint32_t> buckets;

  std::uint32_t num_types() const {
    return offsets.empty() ? 0 : static_cast<std::uint32_t>(offsets.size() - 1);
  }
  /// Rebuilds for `asks`; every ask's type must be < num_types and every
  /// value finite and > 0 (run validate_asks first).
  void build(std::uint32_t num_types, std::span<const Ask> asks);
  /// Sorts type t's by_value through every slot of value <= s (all of
  /// them at s = +inf), and returns the end of those slots, which are
  /// then a sorted prefix. It compare-and-swaps each pair whose smaller
  /// value is <= s and finds the end by binary search below sorted_end[t];
  /// any s is allowed, in any order.
  std::uint32_t sort_through(std::uint32_t t, double s);
};

/// One CRA round's book (run_cra_runs): alpha in run form, runs[r] being
/// the k'_j equal unit asks of user owner[r], and its value order, which
/// is built only as far as the round reads it (order_through).
struct ExtractedRuns {
  /// The runs tile alpha in order: runs[0].start = 0, each next run starts
  /// where the last one ends, and every len is > 0.
  std::vector<AskRun> runs;
  std::vector<std::uint32_t> owner;
  /// |alpha|, the sum of the runs' lens.
  std::uint64_t units{0};
  /// The longest run's len (1 when there are no runs).
  std::uint32_t max_len{1};
  /// Whether two runs may share a value. False is exact: no two do. An
  /// Extract book takes its type's flag (AskTypeIndex::tied), so it can
  /// stay true after the users that made the tie are exhausted.
  bool tied{false};
  /// by_value[0, ordered) lists the runs in ascending (value, run) order:
  /// every run of value <= the largest s order_through() has seen.
  std::vector<std::uint32_t> by_value;
  std::uint32_t ordered{0};
  /// Where the rest of the order comes from: the index and type Extract
  /// read, or null when by_value is complete (complete_book()). The index
  /// must stay alive and unrebuilt while the book is in use (RitWorkspace
  /// holds both; order_through checks the type's size).
  AskTypeIndex* index{nullptr};
  TaskType type{};
  /// The type's slots, in the index's order, that by_value has read.
  std::uint32_t slots_read{0};
  /// Scratch: the run of each of the type's slots (all ones when its
  /// user has no capacity left), which by_value is gathered through.
  std::vector<std::uint32_t> run_of_slot;

  /// Extends the value order through every run of value <= s (all runs at
  /// s = +inf) and returns how many runs have a value <= s.
  std::uint32_t order_through(double s);
};

/// Extract over the index in run form: one run per user of `type` with
/// capacity left, k'_j = asks[j].quantity - allocation[j] > 0, users
/// ascending, over the alpha indices of Algorithm 2's unit vector for
/// those k'_j (testkit::naive_extract), with |alpha|, the longest run and
/// the type's tie flag.
/// The value order is left to the round (ExtractedRuns::order_through).
/// `allocation` has one entry per ask the index was built from;
/// `allocation[j]` is what user j already won and must not exceed its
/// asked quantity. O(users of `type`) per round, no unit expansion and no
/// sort; a reused `out` stops allocating (core::RitWorkspace).
void extract_runs_into(TaskType type, AskTypeIndex& index,
                       std::span<const std::uint32_t> allocation,
                       ExtractedRuns& out);

/// Makes `book` a complete book: its runs and its whole value order
/// (`by_value`, every run once in ascending (value, run) order) are set,
/// and this checks that the runs tile alpha and the order has one entry
/// per run, then fills in |alpha|, the longest run and the exact tie flag.
/// Books built outside Extract (cra_test, bench_micro) are made this way.
void complete_book(ExtractedRuns& book);

}  // namespace rit::core
