#include "metis/tree/prune.h"

#include <limits>
#include <utility>
#include <vector>

#include "metis/util/check.h"

namespace metis::tree {
namespace {

std::size_t leaves_under(const TreeNode& node) {
  if (node.is_leaf()) return 1;
  return leaves_under(*node.left) + leaves_under(*node.right);
}

// metis-lint: begin-deterministic — the CCP step: which node collapses
// must be a pure function of the tree, so pruned trees are bitwise
// reproducible.

// The weakest link of a tree: the first internal node in preorder with the
// strictly smallest g(t), and the tree's leaf count.
struct WeakestLink {
  TreeNode* node = nullptr;
  double g = std::numeric_limits<double>::infinity();
  std::size_t leaves = 0;
};

// One pruning step's view of the tree. find() memoizes (R(T_t),
// |leaves(T_t)|) in one post-order pass, so a step walks the tree once.
// The sums are formed child by child exactly as subtree_error and
// leaves_under form them, so each g(t) is the same double
// weakest_link_value returns.
class WeakestLinkScan {
 public:
  WeakestLink find(TreeNode& root) {
    preorder_.clear();
    WeakestLink link;
    link.leaves = memo(root).leaves;
    for (const auto& [node, g] : preorder_) {
      if (g < link.g) {
        link.g = g;
        link.node = node;
      }
    }
    return link;
  }

 private:
  struct Subtree {
    double error;
    std::size_t leaves;
  };

  Subtree memo(TreeNode& node) {
    if (node.is_leaf()) return {node.node_error, 1};
    const std::size_t slot = preorder_.size();
    preorder_.emplace_back(&node, 0.0);
    const Subtree l = memo(*node.left);
    const Subtree r = memo(*node.right);
    const Subtree t{l.error + r.error, l.leaves + r.leaves};
    preorder_[slot].second =
        (node.node_error - t.error) / static_cast<double>(t.leaves - 1);
    return t;
  }

  std::vector<std::pair<TreeNode*, double>> preorder_;  // (t, g(t))
};
// metis-lint: end-deterministic

void collapse(TreeNode& node) {
  node.feature = -1;
  node.left.reset();
  node.right.reset();
  // prediction / class_weights / node_error already describe this node as a
  // leaf (they were computed at fit time).
}

}  // namespace

double subtree_error(const TreeNode& node) {
  if (node.is_leaf()) return node.node_error;
  return subtree_error(*node.left) + subtree_error(*node.right);
}

double weakest_link_value(const TreeNode& node) {
  MET_CHECK_MSG(!node.is_leaf(), "weakest link is defined on internal nodes");
  const std::size_t leaves = leaves_under(node);
  MET_CHECK(leaves >= 2);
  return (node.node_error - subtree_error(node)) /
         static_cast<double>(leaves - 1);
}

std::size_t prune_to_leaf_count(DecisionTree& tree, std::size_t max_leaves) {
  MET_CHECK(max_leaves >= 1);
  MET_CHECK(!tree.empty());
  WeakestLinkScan scan;
  std::size_t steps = 0;
  for (;;) {
    const WeakestLink link = scan.find(*tree.mutable_root());
    if (link.leaves <= max_leaves) return steps;
    MET_CHECK(link.node != nullptr);
    collapse(*link.node);
    ++steps;
  }
}

std::size_t prune_with_alpha(DecisionTree& tree, double alpha) {
  MET_CHECK(alpha >= 0.0);
  MET_CHECK(!tree.empty());
  WeakestLinkScan scan;
  std::size_t steps = 0;
  // Repeat until no internal node's weakest-link value is <= alpha. Pruning
  // one node can change ancestors' values, hence the outer loop.
  for (;;) {
    const WeakestLink link = scan.find(*tree.mutable_root());
    if (link.node == nullptr || link.g > alpha) return steps;
    collapse(*link.node);
    ++steps;
  }
}

namespace {

std::size_t collapse_redundant_rec(TreeNode* node) {
  if (node->is_leaf()) return 0;
  std::size_t collapsed = collapse_redundant_rec(node->left.get()) +
                          collapse_redundant_rec(node->right.get());
  if (node->left->is_leaf() && node->right->is_leaf() &&
      node->left->prediction == node->right->prediction) {
    node->prediction = node->left->prediction;
    collapse(*node);
    ++collapsed;
  }
  return collapsed;
}

}  // namespace

std::size_t collapse_redundant_splits(DecisionTree& tree) {
  MET_CHECK(!tree.empty());
  return collapse_redundant_rec(tree.mutable_root());
}

}  // namespace metis::tree
