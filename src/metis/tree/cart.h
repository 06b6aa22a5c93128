// CART decision trees (Breiman et al. 1984) — the student model of Metis'
// local-system interpretation (§3). Supports Gini-impurity classification
// and mean-squared-error regression (the paper uses regression trees for
// continuous outputs such as AuTO's queue thresholds).
//
// Tie order. A node scans each feature's rows in (value, row index) order:
// rows with equal values are visited by ascending index. The accumulated
// split statistics, and hence the fitted tree, are therefore a pure
// function of the dataset and the FitConfig, independent of the standard
// library's sort. Node statistics are accumulated in row-index order.
//
// Cost. fit() presorts every feature once and then does O(F·n) work per
// tree level for F features and n rows: each level scans and
// stable-partitions (branch-free) the presorted rows of its nodes; no
// node sorts. The presort is a stable LSD radix sort over 11-bit digits
// of an order-preserving 64-bit key (-0.0 keyed as +0.0), so it orders
// rows by (value, row index) exactly as a comparison sort would, in at
// most six passes; a pass whose digit every key shares is skipped.
// Classification with up to 7 classes scans its cut points with the
// vector kernel of tree/split_kernel.h for isa::active() (util/isa.h),
// compiled for avx512f, avx2 and generic SSE2 and looked up once per fit:
// each side of a cut is one 8-lane vector (per-class weights, total
// weight in the last lane), and every lane repeats the scalar scan's
// adds, squares, divides and comparisons in the same order under
// -ffp-contract=off, so every level fits the tree the scalar scan fits,
// bit for bit. Regression, more classes and the kReference level take
// the scalar scan. A node with fewer than
// 2·max(min_samples_leaf, 1) rows is a leaf at once. The fit holds about
// F·n doubles (the features, column-major) plus (F+1)·n 32-bit row ids
// and n one-byte class ids beside the dataset, so n must fit in 32 bits.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "metis/tree/dataset.h"

namespace metis::tree {

enum class Task { kClassification, kRegression };

struct FitConfig {
  Task task = Task::kClassification;
  std::size_t max_depth = 30;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  // Minimum weighted impurity decrease required to split.
  double min_impurity_decrease = 0.0;
};

struct TreeNode {
  // Split: feature index and threshold; samples with x[feature] <= threshold
  // go left. feature < 0 marks a leaf.
  int feature = -1;
  double threshold = 0.0;
  std::unique_ptr<TreeNode> left;
  std::unique_ptr<TreeNode> right;

  // Leaf payload / node statistics (kept on internal nodes too, for pruning
  // and for Figure-7-style frequency annotations).
  double prediction = 0.0;            // class index or regression value
  std::vector<double> class_weights;  // classification only (unnormalized)
  double weight_sum = 0.0;
  std::size_t sample_count = 0;
  // Weighted resubstitution error contribution R(t) of this node if it were
  // a leaf (misclassification weight or SSE), used by CCP.
  double node_error = 0.0;

  [[nodiscard]] bool is_leaf() const { return feature < 0; }
};

class DecisionTree {
 public:
  DecisionTree() = default;

  // Fits a CART tree on the (optionally weighted) dataset.
  [[nodiscard]] static DecisionTree fit(const Dataset& data,
                                        const FitConfig& cfg);

  [[nodiscard]] Task task() const { return task_; }
  [[nodiscard]] const TreeNode* root() const { return root_.get(); }
  [[nodiscard]] TreeNode* mutable_root() { return root_.get(); }
  [[nodiscard]] bool empty() const { return root_ == nullptr; }
  [[nodiscard]] std::size_t class_count() const { return class_count_; }
  [[nodiscard]] const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  // Predicted class index (classification) or value (regression).
  [[nodiscard]] double predict(std::span<const double> x) const;
  // Normalized class distribution at the reached leaf (classification only).
  [[nodiscard]] std::vector<double> predict_distribution(
      std::span<const double> x) const;

  [[nodiscard]] std::size_t leaf_count() const;
  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] std::size_t node_count() const;

  // Fraction of rows predicted exactly (classification accuracy) or RMSE
  // (regression) against a labelled dataset.
  [[nodiscard]] double accuracy(const Dataset& data) const;
  [[nodiscard]] double rmse(const Dataset& data) const;

  // Deep copy — e.g. to prune the same fitted tree to several budgets.
  [[nodiscard]] DecisionTree clone() const;

  // Used by pruning / IO; takes ownership of a hand-built tree.
  static DecisionTree from_parts(std::unique_ptr<TreeNode> root, Task task,
                                 std::size_t class_count,
                                 std::vector<std::string> feature_names);

 private:
  std::unique_ptr<TreeNode> root_;
  Task task_ = Task::kClassification;
  std::size_t class_count_ = 0;
  std::vector<std::string> feature_names_;
};

}  // namespace metis::tree
