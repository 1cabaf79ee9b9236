#include "tree/incentive_tree.h"

#include <algorithm>

namespace rit::tree {

IncentiveTree::IncentiveTree(std::vector<std::uint32_t> parents)
    : parents_(std::move(parents)) {
  const std::uint32_t n = num_nodes();
  RIT_CHECK_MSG(n >= 1, "tree must contain at least the platform root");
  parents_[0] = 0;  // normalize the ignored root slot
  bool topological = true;
  for (std::uint32_t v = 1; v < n; ++v) topological &= parents_[v] < v;
  if (topological) {
    layout_topological();
  } else {
    layout_general();
  }
}

void IncentiveTree::layout_topological() {
  // Every parent precedes its children, so the tree is acyclic and
  // connected by construction and no DFS is needed.
  const std::uint32_t n = num_nodes();
  const std::uint32_t* parent = parents_.data();
  // Subtree sizes by id, until the last pass below.
  subtree_size_.assign(n, 1);
  for (std::uint32_t v = n - 1; v > 0; --v) {
    subtree_size_[parent[v]] += subtree_size_[v];
  }
  // One ascending pass places each node at its parent's cursor, the next
  // free preorder slot under the parent, so siblings come in ascending id
  // as in the DFS. The cursor lives in preorder_pos_: it starts one past
  // the node's own slot and ends at pos + size once every child is placed.
  depths_.resize(n);
  preorder_.resize(n);
  preorder_pos_.resize(n);
  depths_[0] = 0;
  preorder_[0] = 0;
  preorder_pos_[0] = 1;
  std::uint32_t max_depth = 0;
  for (std::uint32_t v = 1; v < n; ++v) {
    const std::uint32_t p = parent[v];
    const std::uint32_t d = depths_[p] + 1;
    depths_[v] = d;
    max_depth = std::max(max_depth, d);
    const std::uint32_t pos = preorder_pos_[p];
    preorder_pos_[p] = pos + subtree_size_[v];
    preorder_pos_[v] = pos + 1;
    preorder_[pos] = v;
  }
  max_depth_ = max_depth;
  // One pass in preorder turns each node's cursor end, pos + size, into
  // its size at its position and its position; the sizes by id are not
  // read again, so they are overwritten in place.
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    const std::uint32_t v = preorder_[pos];
    subtree_size_[pos] = preorder_pos_[v] - pos;
    preorder_pos_[v] = pos;
  }
}

void IncentiveTree::layout_general() {
  const std::uint32_t n = num_nodes();
  for (std::uint32_t v = 1; v < n; ++v) {
    RIT_CHECK_MSG(parents_[v] < n,
                  "node " << v << " has out-of-range parent " << parents_[v]);
    RIT_CHECK_MSG(parents_[v] != v, "node " << v << " is its own parent");
  }

  // Children adjacency (CSR), ordered by child id for determinism.
  std::vector<std::uint32_t> offsets(std::size_t{n} + 1, 0);
  for (std::uint32_t v = 1; v < n; ++v) ++offsets[parents_[v] + 1];
  for (std::uint32_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  // Scatter with offsets[p] as the bucket cursor: afterwards it holds the
  // end of p's bucket, so shifting by one restores the starts.
  std::vector<std::uint32_t> targets(n - 1);
  for (std::uint32_t v = 1; v < n; ++v) targets[offsets[parents_[v]]++] = v;
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

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
    // Push in reverse so children are visited in ascending id order.
    for (std::uint32_t i = offsets[v + 1]; i > offsets[v]; --i) {
      const std::uint32_t c = targets[i - 1];
      depths_[c] = depths_[v] + 1;
      stack.push_back(c);
    }
  }
  RIT_CHECK_MSG(preorder_.size() == n,
                "parent vector does not describe a single tree rooted at 0: "
                "visited " << preorder_.size() << " of " << n << " nodes");
  max_depth_ = *std::max_element(depths_.begin(), depths_.end());

  // Subtree sizes by position, via reverse-preorder accumulation.
  subtree_size_.assign(n, 1);
  for (std::uint32_t pos = n - 1; pos > 0; --pos) {
    subtree_size_[preorder_pos_[parents_[preorder_[pos]]]] +=
        subtree_size_[pos];
  }
}

std::vector<std::uint32_t> IncentiveTree::children(std::uint32_t node) const {
  RIT_CHECK(node < num_nodes());
  // The children start right after the node in preorder, each one's
  // subtree after the previous one's.
  std::vector<std::uint32_t> out;
  const std::uint32_t begin = preorder_pos_[node];
  const std::uint32_t end = begin + subtree_size_[begin];
  for (std::uint32_t i = begin + 1; i < end; i += subtree_size_[i]) {
    out.push_back(preorder_[i]);
  }
  return out;
}

std::vector<std::uint32_t> IncentiveTree::descendants(
    std::uint32_t node) const {
  RIT_CHECK(node < num_nodes());
  const std::uint32_t begin = preorder_pos_[node];
  const std::uint32_t size = subtree_size_[begin];
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
  return pos > begin && pos < begin + subtree_size_[begin];
}

}  // namespace rit::tree
