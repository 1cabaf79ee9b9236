#include "core/payment.h"

#include <algorithm>
#include <cmath>
#include <limits>

// rit-lint: allow-file(testkit-only-injection)
#include "common/bug_inject.h"
#include "common/check.h"
#include "obs/obs.h"

namespace rit::core {

namespace {
void validate_inputs(const tree::IncentiveTree& tree,
                     std::span<const TaskType> types,
                     std::span<const double> auction_payments,
                     double discount_base) {
  RIT_CHECK_MSG(types.size() == tree.num_participants(),
                "types size " << types.size() << " != participants "
                              << tree.num_participants());
  RIT_CHECK(auction_payments.size() == types.size());
  RIT_CHECK_MSG(discount_base > 0.0 && discount_base < 1.0,
                "discount base must lie in (0,1), got " << discount_base);
}

/// base^depth with depth potentially in the thousands (chain-tree stress
/// tests): std::pow underflows cleanly to 0, which is the behaviour we want.
double discount(double base, std::uint32_t depth) {
  return std::pow(base, static_cast<double>(depth));
}
}  // namespace

std::vector<double> tree_payments_reference(
    const tree::IncentiveTree& tree, std::span<const TaskType> types,
    std::span<const double> auction_payments, double discount_base) {
  validate_inputs(tree, types, auction_payments, discount_base);
  std::vector<double> p(auction_payments.begin(), auction_payments.end());
  for (std::uint32_t i = 0; i < tree.num_participants(); ++i) {
    const std::uint32_t node = tree::node_of_participant(i);
    const double contribution =
        discount(discount_base, tree.depth(node)) * auction_payments[i];
    if (contribution == 0.0) continue;
    for (std::uint32_t anc = tree.parent(node); anc != 0;
         anc = tree.parent(anc)) {
      const std::uint32_t j = tree::participant_of_node(anc);
      if (types[j] != types[i]) p[j] += contribution;
    }
  }
  return p;
}

void tree_payments_into(const tree::IncentiveTree& tree,
                        std::span<const TaskType> types,
                        std::span<const double> auction_payments,
                        double discount_base, unsigned /*threads*/,
                        PaymentWorkspace& ws, std::vector<double>& out) {
  RIT_TRACE_SPAN("payment.extract");
  validate_inputs(tree, types, auction_payments, discount_base);
  const std::uint32_t n = tree.num_participants();
  out.assign(auction_payments.begin(), auction_payments.end());
  if (n == 0) return;

  // base^depth memo: depths repeat across the whole tree, so one pow per
  // distinct depth replaces one per node. std::pow is a pure function of
  // (base, depth), so the memo changes nothing bitwise.
  ws.depth_discount.resize(static_cast<std::size_t>(tree.max_depth()) + 1);
  for (std::size_t d = 0; d < ws.depth_discount.size(); ++d) {
#if RIT_BUG_ENABLED(RIT_BUG_DISCOUNT_DEPTH)
    // planted: every contribution discounted one level too deep
    ws.depth_discount[d] = discount(discount_base,
                                    static_cast<std::uint32_t>(d) + 1);
#else
    ws.depth_discount[d] = discount(discount_base,
                                    static_cast<std::uint32_t>(d));
#endif
  }

  // One preorder scan. A subtree is a contiguous preorder range, so its
  // contribution total is the running sum when it closes minus the running
  // sum when it opened, and its same-type share is the same difference of
  // its type's running sum. The node's own contribution is of its own
  // type, so it cancels. Open subtrees nest, so they wait on a stack whose
  // top closes first. Contributions are added one at a time in preorder,
  // which keeps every payment bit-identical to the prefix-sum pass in
  // tests/payment_reference.h.
  std::uint32_t num_types = 0;
  for (TaskType t : types) num_types = std::max(num_types, t.value + 1);
  ws.type_sum.assign(num_types, 0.0);
#if RIT_BUG_ENABLED(RIT_BUG_PREFIX_CARRY)
  std::vector<bool> type_seen(num_types, false);
#endif
  // The stack holds a sentinel that never closes at the bottom, then the
  // open subtrees, then the entry of the node being visited: a node at
  // depth d has d - 1 open ancestors below the root, so max_depth + 1
  // entries suffice. Every node's entry is written, and the top advances
  // over it only when it has descendants.
  ws.open.resize(static_cast<std::size_t>(tree.max_depth()) + 1);
  PaymentWorkspace::OpenSubtree* open = ws.open.data();
  open[0] = {0, std::numeric_limits<std::uint32_t>::max(), 0.0, 0.0};
  std::size_t top = 0;
  double sum = 0.0;
  const auto close_until = [&](std::uint32_t pos) {
    for (; open[top].end <= pos; --top) {
      const PaymentWorkspace::OpenSubtree& o = open[top];
      const double total = sum - o.sum_at_entry;
      const double same_type =
          ws.type_sum[types[o.participant].value] - o.type_sum_at_entry;
      // The true reward is a sum of non-negative contributions; the
      // running-sum subtraction can dip a few ulps below zero, which must
      // not leak into a payment below p_i^A.
      out[o.participant] += std::max(0.0, total - same_type);
    }
  };
  const std::span<const std::uint32_t> preorder = tree.preorder();
  const std::span<const std::uint32_t> sizes = tree.subtree_sizes();
  const auto nodes = static_cast<std::uint32_t>(preorder.size());
  for (std::uint32_t pos = 1; pos < nodes; ++pos) {  // 0 is the root
    close_until(pos);
    const std::uint32_t node = preorder[pos];
    // The open subtrees are now exactly the node's ancestors below the
    // root (an ancestor's subtree always has more than one node), so its
    // depth needs no per-node read.
    const auto depth = static_cast<std::uint32_t>(top) + 1;
    RIT_DCHECK(depth == tree.depth(node));
    const std::uint32_t i = tree::participant_of_node(node);
    const std::uint32_t t = types[i].value;
    const std::uint32_t size = sizes[pos];
    open[top + 1] = {i, pos + size, sum, ws.type_sum[t]};
    top += size > 1 ? 1 : 0;  // a leaf has no descendants and no reward
    const double c = ws.depth_discount[depth] * auction_payments[i];
    sum += c;
#if RIT_BUG_ENABLED(RIT_BUG_PREFIX_CARRY)
    // planted: each type's running sum forgets its first contribution
    if (type_seen[t]) ws.type_sum[t] += c;
    type_seen[t] = true;
#else
    ws.type_sum[t] += c;
#endif
  }
  close_until(nodes);
}

double solicitation_premium(std::span<const double> payments,
                            std::span<const double> auction_payments) {
  RIT_CHECK(payments.size() == auction_payments.size());
  double premium = 0.0;
  for (std::size_t i = 0; i < payments.size(); ++i) {
    premium += payments[i] - auction_payments[i];
  }
  return premium;
}

}  // namespace rit::core
