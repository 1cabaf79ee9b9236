// The incentive tree T of Sec. 3-A.
//
// Node 0 is always the crowdsensing platform (the root); it is not a user.
// Nodes 1..num_nodes-1 are participants. By library-wide convention,
// participant index i corresponds to tree node i+1 — mechanism code
// (core/rit.h) and attack code (attack/sybil_apply.h) both rely on it.
//
// The structure is immutable once built: the paper's solicitation phase ends
// before the auction starts, and sybil attacks are modelled as *rewrites*
// producing a new tree (attack module), never in-place mutation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace rit::tree {

class IncentiveTree {
 public:
  /// Builds from a parent vector: parents[i] is the parent of node i, for
  /// i >= 1; parents[0] is ignored (root). Parents may reference any node id
  /// (forward or backward); the constructor validates that the structure is
  /// a single tree rooted at 0 and computes depths and a preorder layout:
  /// the nodes in preorder, each node's preorder position, and the subtree
  /// sizes stored by preorder position, so a scan of preorder() reads them
  /// in sequence. A topologically numbered vector (every parents[v] < v,
  /// as every builder in tree/builders.h emits) is laid out in linear
  /// passes; any other one by a stack DFS over a temporary child list.
  /// Both give the same layout: children are visited in ascending id.
  explicit IncentiveTree(std::vector<std::uint32_t> parents);

  /// Convenience: a tree with only the platform root.
  static IncentiveTree root_only() { return IncentiveTree({0}); }

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(parents_.size());
  }
  /// Number of participants (nodes excluding the platform root).
  std::uint32_t num_participants() const { return num_nodes() - 1; }

  std::uint32_t parent(std::uint32_t node) const {
    RIT_CHECK(node >= 1 && node < num_nodes());
    return parents_[node];
  }

  /// The children of `node` in ascending id, read off the preorder in
  /// O(number of children).
  std::vector<std::uint32_t> children(std::uint32_t node) const;

  /// Distance r_j from node to the root; depth(root) == 0, so users who
  /// joined at the very beginning have depth 1, matching the paper's r_j.
  std::uint32_t depth(std::uint32_t node) const {
    RIT_CHECK(node < num_nodes());
    return depths_[node];
  }

  std::uint32_t max_depth() const { return max_depth_; }

  /// Nodes in preorder (root first); the nodes of any subtree are contiguous.
  std::span<const std::uint32_t> preorder() const { return preorder_; }

  /// Position of `node` within preorder().
  std::uint32_t preorder_index(std::uint32_t node) const {
    RIT_CHECK(node < num_nodes());
    return preorder_pos_[node];
  }

  /// Size of the subtree rooted at `node`, including the node itself.
  std::uint32_t subtree_size(std::uint32_t node) const {
    RIT_CHECK(node < num_nodes());
    return subtree_size_[preorder_pos_[node]];
  }

  /// Subtree sizes in preorder: subtree_sizes()[k] is the size of the
  /// subtree rooted at preorder()[k], which spans positions [k, k + size).
  std::span<const std::uint32_t> subtree_sizes() const {
    return subtree_size_;
  }

  /// The paper's T_j: strict descendants of `node` (excluding the node).
  std::vector<std::uint32_t> descendants(std::uint32_t node) const;

  /// True if `anc` is a strict ancestor of `node`.
  bool is_ancestor(std::uint32_t anc, std::uint32_t node) const;

  const std::vector<std::uint32_t>& parents() const { return parents_; }

 private:
  void layout_topological();
  void layout_general();

  std::vector<std::uint32_t> parents_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint32_t> preorder_;
  std::vector<std::uint32_t> preorder_pos_;
  std::vector<std::uint32_t> subtree_size_;  ///< by preorder position
  std::uint32_t max_depth_{0};
};

/// Node id of participant `i` under the library convention.
constexpr std::uint32_t node_of_participant(std::uint32_t i) { return i + 1; }
/// Participant index of node `n` (n must be >= 1).
constexpr std::uint32_t participant_of_node(std::uint32_t n) { return n - 1; }

}  // namespace rit::tree
