// Reference prefix-sum payment pass for the payment equivalence tests
// (payment_test).
//
// core::tree_payments_into computes every subtree reward in one preorder
// scan with a running contribution sum per task type. The reference below
// is the pass it must reproduce bit for bit: contributions laid out in
// preorder and scanned into one prefix sum, per-type sparse prefix sums
// in CSR form (positions of each type's nodes plus inclusive running
// sums), and per participant two binary searches over its type's
// positions. Both add every contribution in preorder, so the two must
// agree exactly, not just within a tolerance.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "tree/incentive_tree.h"

namespace rit::core::reference {

inline std::vector<double> prefix_sum_payments(
    const tree::IncentiveTree& tree, std::span<const TaskType> types,
    std::span<const double> auction_payments, double discount_base) {
  const std::uint32_t n = tree.num_participants();
  std::vector<double> out(auction_payments.begin(), auction_payments.end());
  if (n == 0) return out;
  std::vector<double> depth_discount(
      static_cast<std::size_t>(tree.max_depth()) + 1);
  for (std::size_t d = 0; d < depth_discount.size(); ++d) {
    depth_discount[d] = std::pow(discount_base, static_cast<double>(d));
  }

  // Stage 1: each node's contribution at its preorder slot.
  const auto preorder = tree.preorder();
  const std::size_t nodes = preorder.size();
  std::vector<double> prefix(nodes + 1, 0.0);
  for (std::size_t pos = 0; pos < nodes; ++pos) {
    const std::uint32_t node = preorder[pos];
    if (node == 0) continue;
    const std::uint32_t i = tree::participant_of_node(node);
    prefix[pos + 1] = depth_discount[tree.depth(node)] * auction_payments[i];
  }

  // Stage 2: per-type positions and inclusive prefix sums, in CSR form.
  std::uint32_t num_types = 0;
  for (TaskType t : types) num_types = std::max(num_types, t.value + 1);
  std::vector<std::uint32_t> offsets(num_types + 1, 0);
  for (TaskType t : types) offsets[t.value + 1] += 1;
  for (std::uint32_t t = 0; t < num_types; ++t) offsets[t + 1] += offsets[t];
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<std::uint32_t> positions(n);
  std::vector<double> type_prefix(n);
  for (std::size_t pos = 0; pos < nodes; ++pos) {
    const std::uint32_t node = preorder[pos];
    if (node == 0) continue;
    const std::uint32_t i = tree::participant_of_node(node);
    const double c = prefix[pos + 1];
    const std::uint32_t t = types[i].value;
    const std::uint32_t slot = cursor[t]++;
    positions[slot] = static_cast<std::uint32_t>(pos);
    type_prefix[slot] = slot == offsets[t] ? c : type_prefix[slot - 1] + c;
  }

  // Stage 3: the contributions scanned into a prefix sum in place.
  for (std::size_t pos = 0; pos < nodes; ++pos) prefix[pos + 1] += prefix[pos];

  // Stage 4: per participant, the subtree total minus the same-type share.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t node = tree::node_of_participant(i);
    if (tree.subtree_size(node) == 1) continue;
    const std::uint32_t begin = tree.preorder_index(node);
    const std::uint32_t end = begin + tree.subtree_size(node);
    const double total = prefix[end] - prefix[begin];
    const std::uint32_t t = types[i].value;
    const auto* pos_begin = positions.data() + offsets[t];
    const auto* pos_end = positions.data() + offsets[t + 1];
    const auto lo = std::lower_bound(pos_begin, pos_end, begin);
    const auto hi = std::lower_bound(pos_begin, pos_end, end);
    const double* group = type_prefix.data() + offsets[t];
    const double sum_hi = hi == pos_begin ? 0.0 : group[(hi - pos_begin) - 1];
    const double sum_lo = lo == pos_begin ? 0.0 : group[(lo - pos_begin) - 1];
    out[i] += std::max(0.0, total - (sum_hi - sum_lo));
  }
  return out;
}

}  // namespace rit::core::reference
