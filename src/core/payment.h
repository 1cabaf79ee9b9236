// Payment determination phase (Algorithm 3, lines 22-28).
//
// The final payment of participant j is
//
//   p_j = p_j^A  +  sum over strict descendants i of j with t_i != t_j of
//                   base^(r_i) * p_i^A
//
// where r_i is the *absolute* depth of the contributor i (platform root at
// depth 0) and base = 1/2 in the paper. Two properties hinge on the details:
//
//  * contributors of the *same* task type are excluded — a user's sybil
//    identities necessarily share its type (Sec. 3-B), so they can never
//    feed tree rewards back to their owner (Lemma 6.4);
//  * the weight decays with absolute depth, so inserting a fake identity
//    above one's real descendants strictly shrinks their contribution.
//
// Two implementations are provided: a transparent O(N * depth) reference
// and the production O(N) preorder scan used by run_rit(); property tests
// pin them to each other on random trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "tree/incentive_tree.h"

namespace rit::core {

/// Reference implementation: for every participant, walk its ancestors and
/// push its contribution up. O(sum of depths); audit_payments (audit.h)
/// and the testkit oracle check the scan below against it.
std::vector<double> tree_payments_reference(
    const tree::IncentiveTree& tree, std::span<const TaskType> types,
    std::span<const double> auction_payments, double discount_base);

/// Reusable scratch for tree_payments_into: the depth-discount memo, one
/// running contribution sum per task type, and the stack of subtrees the
/// preorder scan has opened but not yet closed, with a sentinel below
/// them (max_depth + 1 entries).
/// All buffers regrow to high-water capacity once and are then reused, so
/// a steady-state payment pass performs no allocations.
struct PaymentWorkspace {
  struct OpenSubtree {
    std::uint32_t participant;
    std::uint32_t end;         ///< preorder position one past the subtree
    double sum_at_entry;       ///< all-type running sum before the subtree
    double type_sum_at_entry;  ///< own-type running sum before the subtree
  };
  std::vector<double> depth_discount;  ///< base^d memo, size max_depth+1
  std::vector<double> type_sum;        ///< per-type running sum
  std::vector<OpenSubtree> open;
};

/// Production implementation: one O(N) preorder scan with a running sum
/// per task type, which reads the tree's subtree sizes in sequence (by
/// preorder position), with O(num_types + max_depth) scratch in `ws`.
/// Writes the final payment vector p (participant-indexed, like the
/// inputs) into `out`, resized to the participant count, reusing
/// capacity. The scan is serial and `threads` is ignored: it stays in the
/// signature only for existing callers such as perfbench, which passes
/// RitConfig::intra_threads.
void tree_payments_into(const tree::IncentiveTree& tree,
                        std::span<const TaskType> types,
                        std::span<const double> auction_payments,
                        double discount_base, unsigned threads,
                        PaymentWorkspace& ws, std::vector<double>& out);

/// The solicitation premium sum_j (p_j - p_j^A). Sec. 7-C bounds it by
/// sum_j p_j^A; tests assert the bound on every run.
double solicitation_premium(std::span<const double> payments,
                            std::span<const double> auction_payments);

}  // namespace rit::core
