// Payment auditing: explain and verify the payment determination phase.
//
// A crowdsensing platform owes its users an answer to "why was I paid
// this?". explain_payment() decomposes one participant's final payment into
// the auction component plus one line per contributing descendant (who,
// their depth, their task type, the discount applied, the share received).
// audit_payments() re-derives every payment from first principles (the
// O(N * depth) definition) and checks the paper's invariants, returning a
// machine-checkable report; tests run it after every mechanism test
// scenario, and it doubles as a differential oracle for the production
// preorder scan, tree_payments_into().
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "core/rit.h"
#include "tree/incentive_tree.h"

namespace rit::core {

/// One contributing descendant in a payment explanation.
struct ContributionLine {
  std::uint32_t participant{0};  // the descendant
  TaskType type;
  std::uint32_t depth{0};        // r_i, absolute depth of the contributor
  double auction_payment{0.0};   // p_i^A
  double share{0.0};             // discount^depth * p_i^A
};

struct PaymentExplanation {
  std::uint32_t participant{0};
  double auction_payment{0.0};
  /// Different-type descendants with non-zero auction payment, ordered by
  /// share (largest first).
  std::vector<ContributionLine> contributions;
  /// Same-type descendants whose payment was excluded by the t_i != t_j
  /// rule (count only; they never contribute).
  std::uint32_t same_type_excluded{0};
  double total() const;

  /// Human-readable multi-line rendering.
  std::string render() const;
};

/// Explains participant `j`'s payment for the given mechanism inputs.
PaymentExplanation explain_payment(const tree::IncentiveTree& tree,
                                   std::span<const TaskType> types,
                                   std::span<const double> auction_payments,
                                   double discount_base, std::uint32_t j);

struct AuditReport {
  bool ok{true};
  /// Human-readable descriptions of every violated invariant.
  std::vector<std::string> violations;
  double total_payment{0.0};
  double total_auction_payment{0.0};
  double solicitation_premium{0.0};
};

/// Re-derives every payment from the definition and checks:
///  * payment[j] matches the re-derivation within tolerance;
///  * payment[j] >= auction_payment[j] (tree rewards are non-negative);
///  * the Sec. 7-C budget bound premium <= total auction payment (checked
///    only for discount bases <= 1/2, where it is actually a theorem);
///  * on failed runs, everything is zero.
AuditReport audit_payments(const tree::IncentiveTree& tree,
                           std::span<const Ask> asks, const RitResult& result,
                           double discount_base, double tolerance = 1e-6);

}  // namespace rit::core
