#include "tree/incentive_tree.h"

#include <algorithm>

namespace rit::tree {

IncentiveTree::IncentiveTree(std::vector<std::uint32_t> parents)
    : parents_(std::move(parents)) {
  const std::uint32_t n = num_nodes();
  RIT_CHECK_MSG(n >= 1, "tree must contain at least the platform root");
  parents_[0] = 0;  // normalize the ignored root slot
  for (std::uint32_t v = 1; v < n; ++v) {
    RIT_CHECK_MSG(parents_[v] < n,
                  "node " << v << " has out-of-range parent " << parents_[v]);
    RIT_CHECK_MSG(parents_[v] != v, "node " << v << " is its own parent");
  }

  // Children adjacency (CSR), ordered by child id for determinism.
  child_offsets_.assign(std::size_t{n} + 1, 0);
  for (std::uint32_t v = 1; v < n; ++v) ++child_offsets_[parents_[v] + 1];
  for (std::uint32_t i = 1; i <= n; ++i) child_offsets_[i] += child_offsets_[i - 1];
  // Scatter with child_offsets_[p] as the bucket cursor: afterwards it holds
  // the end of p's bucket, so shifting by one restores the starts.
  child_targets_.resize(n - 1);
  for (std::uint32_t v = 1; v < n; ++v) {
    child_targets_[child_offsets_[parents_[v]]++] = v;
  }
  std::copy_backward(child_offsets_.begin(), child_offsets_.end() - 1,
                     child_offsets_.end());
  child_offsets_[0] = 0;

  // Iterative preorder DFS from the root; doubles as the acyclicity /
  // connectivity check (every node must be visited exactly once).
  depths_.assign(n, 0);
  preorder_.clear();
  preorder_.reserve(n);
  preorder_pos_.assign(n, 0);
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    preorder_pos_[v] = static_cast<std::uint32_t>(preorder_.size());
    preorder_.push_back(v);
    auto kids = children(v);
    // Push in reverse so children are visited in ascending id order.
    for (std::size_t i = kids.size(); i > 0; --i) {
      const std::uint32_t c = kids[i - 1];
      depths_[c] = depths_[v] + 1;
      stack.push_back(c);
    }
  }
  RIT_CHECK_MSG(preorder_.size() == n,
                "parent vector does not describe a single tree rooted at 0: "
                "visited " << preorder_.size() << " of " << n << " nodes");
  max_depth_ = *std::max_element(depths_.begin(), depths_.end());

  // Subtree sizes via reverse-preorder accumulation.
  subtree_size_.assign(n, 1);
  for (std::size_t i = preorder_.size(); i > 1; --i) {
    const std::uint32_t v = preorder_[i - 1];
    subtree_size_[parents_[v]] += subtree_size_[v];
  }
}

std::vector<std::uint32_t> IncentiveTree::descendants(
    std::uint32_t node) const {
  RIT_CHECK(node < num_nodes());
  const std::uint32_t begin = preorder_pos_[node];
  const std::uint32_t size = subtree_size_[node];
  std::vector<std::uint32_t> out;
  out.reserve(size - 1);
  for (std::uint32_t i = begin + 1; i < begin + size; ++i) {
    out.push_back(preorder_[i]);
  }
  return out;
}

bool IncentiveTree::is_ancestor(std::uint32_t anc, std::uint32_t node) const {
  RIT_CHECK(anc < num_nodes());
  RIT_CHECK(node < num_nodes());
  if (anc == node) return false;
  const std::uint32_t begin = preorder_pos_[anc];
  const std::uint32_t pos = preorder_pos_[node];
  return pos > begin && pos < begin + subtree_size_[anc];
}

}  // namespace rit::tree
