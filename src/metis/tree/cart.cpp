#include "metis/tree/cart.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "metis/util/check.h"

namespace metis::tree {
namespace {

// metis-lint: begin-deterministic — the CART fit: a tree is a pure
// function of (dataset, FitConfig). Equal feature values are ordered by
// row index, never by what a sort happens to leave behind, so the scan
// order, and with it every accumulated double, is fixed.

// Accumulated node statistics for one side of a candidate split.
struct SideStats {
  double weight = 0.0;
  std::size_t count = 0;
  // classification
  std::vector<double> class_w;
  // regression
  double sum_y = 0.0;
  double sum_y2 = 0.0;

  void init(Task task, std::size_t classes) {
    if (task == Task::kClassification) class_w.assign(classes, 0.0);
  }
  // Empties the side, keeping the class vector's size and capacity.
  void clear(Task task) {
    weight = 0.0;
    count = 0;
    sum_y = 0.0;
    sum_y2 = 0.0;
    if (task == Task::kClassification) {
      std::fill(class_w.begin(), class_w.end(), 0.0);
    }
  }
  void add(Task task, double y, double w) {
    weight += w;
    ++count;
    if (task == Task::kClassification) {
      class_w[static_cast<std::size_t>(y)] += w;
    } else {
      sum_y += w * y;
      sum_y2 += w * y * y;
    }
  }
  void remove(Task task, double y, double w) {
    weight -= w;
    --count;
    if (task == Task::kClassification) {
      class_w[static_cast<std::size_t>(y)] -= w;
    } else {
      sum_y -= w * y;
      sum_y2 -= w * y * y;
    }
  }
  // Weighted impurity mass: weight * gini for classification, SSE for
  // regression. Splits minimize the sum of the two children's masses.
  [[nodiscard]] double impurity_mass(Task task) const {
    if (weight <= 0.0) return 0.0;
    if (task == Task::kClassification) {
      double sq = 0.0;
      for (double cw : class_w) sq += cw * cw;
      return weight * (1.0 - sq / (weight * weight));
    }
    // SSE = Σ w y² − (Σ w y)² / Σ w
    return std::max(0.0, sum_y2 - sum_y * sum_y / weight);
  }
};

// Presorted builder. Features are transposed once into column-major
// `cols` (cols[f*n + i] = x[i][f]), and `ord` holds F+1 rows of n row
// ids: row f sorted by (x[i][f], i), row F in index order. A node owns
// [lo, hi) of every row; a split stable-partitions all F+1 rows, so both
// children inherit sorted ranges and no node sorts again.
struct Builder {
  const FitConfig& cfg;
  std::size_t classes;
  std::size_t n;
  std::size_t features;
  std::vector<double> cols;
  const std::vector<double>& y;
  std::vector<double> w;
  std::vector<std::uint32_t> ord;
  std::vector<std::uint8_t> goes_left;  // by row id, for the current split
  std::vector<std::uint32_t> spill;     // right-hand ids during a partition
  SideStats left, right;                // scan scratch

  Builder(const Dataset& data, const FitConfig& cfg, std::size_t classes)
      : cfg(cfg),
        classes(classes),
        n(data.size()),
        features(data.feature_count()),
        cols(features * n),
        y(data.y),
        w(n),
        ord((features + 1) * n),
        goes_left(n),
        spill(n) {
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = data.weight_of(i);
      for (std::size_t f = 0; f < features; ++f) {
        const double v = data.x[i][f];
        MET_CHECK_MSG(!std::isnan(v), "features must not be NaN");
        cols[f * n + i] = v;
      }
    }
    std::vector<std::pair<double, std::uint32_t>> keyed(n);
    for (std::size_t f = 0; f < features; ++f) {
      for (std::size_t i = 0; i < n; ++i) {
        keyed[i] = {cols[f * n + i], static_cast<std::uint32_t>(i)};
      }
      std::sort(keyed.begin(), keyed.end());  // (value, row index)
      for (std::size_t k = 0; k < n; ++k) ord[f * n + k] = keyed[k].second;
    }
    std::iota(ord.begin() + static_cast<std::ptrdiff_t>(features * n),
              ord.end(), std::uint32_t{0});
    left.init(cfg.task, classes);
    right.init(cfg.task, classes);
  }

  std::unique_ptr<TreeNode> build(std::size_t lo, std::size_t hi,
                                  std::size_t depth) {
    auto node = std::make_unique<TreeNode>();
    const std::uint32_t* by_index = &ord[features * n];
    SideStats stats;
    stats.init(cfg.task, classes);
    for (std::size_t k = lo; k < hi; ++k) {
      stats.add(cfg.task, y[by_index[k]], w[by_index[k]]);
    }
    node->weight_sum = stats.weight;
    node->sample_count = hi - lo;
    fill_leaf_payload(*node, stats);

    if (depth >= cfg.max_depth || hi - lo < cfg.min_samples_split ||
        is_pure(stats)) {
      return node;
    }

    const double parent_mass = stats.impurity_mass(cfg.task);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_decrease = cfg.min_impurity_decrease;

    for (std::size_t f = 0; f < features; ++f) {
      const std::uint32_t* sorted = &ord[f * n];
      const double* col = &cols[f * n];
      left.clear(cfg.task);
      right = stats;
      for (std::size_t k = lo; k + 1 < hi; ++k) {
        const std::uint32_t i = sorted[k];
        left.add(cfg.task, y[i], w[i]);
        right.remove(cfg.task, y[i], w[i]);
        const double v = col[i];
        const double vnext = col[sorted[k + 1]];
        if (v == vnext) continue;  // not a valid cut point
        if (left.count < cfg.min_samples_leaf ||
            right.count < cfg.min_samples_leaf) {
          continue;
        }
        const double decrease = parent_mass - left.impurity_mass(cfg.task) -
                                right.impurity_mass(cfg.task);
        if (decrease > best_decrease) {
          best_decrease = decrease;
          best_feature = static_cast<int>(f);
          best_threshold = v + (vnext - v) / 2.0;
        }
      }
    }

    if (best_feature < 0) return node;  // no admissible split

    const double* col = &cols[static_cast<std::size_t>(best_feature) * n];
    std::size_t left_count = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = by_index[k];
      goes_left[i] = col[i] <= best_threshold ? 1 : 0;
      left_count += goes_left[i];
    }
    MET_CHECK(left_count > 0 && left_count < hi - lo);
    for (std::size_t r = 0; r <= features; ++r) partition(&ord[r * n], lo, hi);

    node->feature = best_feature;
    node->threshold = best_threshold;
    node->left = build(lo, lo + left_count, depth + 1);
    node->right = build(lo + left_count, hi, depth + 1);
    return node;
  }

  // Stable partition of row[lo, hi) by goes_left: left ids first.
  void partition(std::uint32_t* row, std::size_t lo, std::size_t hi) {
    std::size_t out = lo;
    std::size_t spilled = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = row[k];
      if (goes_left[i] != 0) {
        row[out++] = i;
      } else {
        spill[spilled++] = i;
      }
    }
    std::copy_n(spill.begin(), spilled, row + out);
  }

  void fill_leaf_payload(TreeNode& node, const SideStats& stats) const {
    if (cfg.task == Task::kClassification) {
      node.class_weights = stats.class_w;
      std::size_t best = 0;
      for (std::size_t c = 1; c < stats.class_w.size(); ++c) {
        if (stats.class_w[c] > stats.class_w[best]) best = c;
      }
      node.prediction = static_cast<double>(best);
      node.node_error = stats.weight - stats.class_w[best];
    } else {
      node.prediction = stats.weight > 0.0 ? stats.sum_y / stats.weight : 0.0;
      node.node_error = stats.impurity_mass(Task::kRegression);
    }
  }

  [[nodiscard]] bool is_pure(const SideStats& stats) const {
    return stats.impurity_mass(cfg.task) <= 1e-12;
  }
};
// metis-lint: end-deterministic

const TreeNode* descend(const TreeNode* node, std::span<const double> x) {
  MET_CHECK(node != nullptr);
  while (!node->is_leaf()) {
    const auto f = static_cast<std::size_t>(node->feature);
    MET_CHECK(f < x.size());
    node = x[f] <= node->threshold ? node->left.get() : node->right.get();
  }
  return node;
}

std::size_t count_leaves(const TreeNode* node) {
  if (node->is_leaf()) return 1;
  return count_leaves(node->left.get()) + count_leaves(node->right.get());
}

std::size_t count_nodes(const TreeNode* node) {
  if (node->is_leaf()) return 1;
  return 1 + count_nodes(node->left.get()) + count_nodes(node->right.get());
}

std::size_t max_depth(const TreeNode* node) {
  if (node->is_leaf()) return 0;
  return 1 + std::max(max_depth(node->left.get()),
                      max_depth(node->right.get()));
}

}  // namespace

DecisionTree DecisionTree::fit(const Dataset& data, const FitConfig& cfg) {
  data.validate();
  MET_CHECK_MSG(data.size() > 0, "cannot fit a tree on an empty dataset");
  MET_CHECK_MSG(data.size() <= std::numeric_limits<std::uint32_t>::max(),
                "row ids are 32-bit");
  DecisionTree tree;
  tree.task_ = cfg.task;
  tree.feature_names_ = data.feature_names;
  tree.class_count_ =
      cfg.task == Task::kClassification ? data.class_count() : 0;
  Builder builder(data, cfg, tree.class_count_);
  tree.root_ = builder.build(0, data.size(), 0);
  return tree;
}

namespace {

std::unique_ptr<TreeNode> clone_node(const TreeNode* node) {
  if (node == nullptr) return nullptr;
  auto copy = std::make_unique<TreeNode>();
  copy->feature = node->feature;
  copy->threshold = node->threshold;
  copy->prediction = node->prediction;
  copy->class_weights = node->class_weights;
  copy->weight_sum = node->weight_sum;
  copy->sample_count = node->sample_count;
  copy->node_error = node->node_error;
  copy->left = clone_node(node->left.get());
  copy->right = clone_node(node->right.get());
  return copy;
}

}  // namespace

DecisionTree DecisionTree::clone() const {
  MET_CHECK(root_ != nullptr);
  return from_parts(clone_node(root_.get()), task_, class_count_,
                    feature_names_);
}

DecisionTree DecisionTree::from_parts(std::unique_ptr<TreeNode> root,
                                      Task task, std::size_t class_count,
                                      std::vector<std::string> feature_names) {
  MET_CHECK(root != nullptr);
  DecisionTree tree;
  tree.root_ = std::move(root);
  tree.task_ = task;
  tree.class_count_ = class_count;
  tree.feature_names_ = std::move(feature_names);
  return tree;
}

double DecisionTree::predict(std::span<const double> x) const {
  return descend(root_.get(), x)->prediction;
}

std::vector<double> DecisionTree::predict_distribution(
    std::span<const double> x) const {
  MET_CHECK(task_ == Task::kClassification);
  const TreeNode* leaf = descend(root_.get(), x);
  std::vector<double> dist = leaf->class_weights;
  double total = 0.0;
  for (double w : dist) total += w;
  if (total > 0.0) {
    for (double& w : dist) w /= total;
  }
  return dist;
}

std::size_t DecisionTree::leaf_count() const {
  return root_ ? count_leaves(root_.get()) : 0;
}

std::size_t DecisionTree::depth() const {
  return root_ ? max_depth(root_.get()) : 0;
}

std::size_t DecisionTree::node_count() const {
  return root_ ? count_nodes(root_.get()) : 0;
}

double DecisionTree::accuracy(const Dataset& data) const {
  MET_CHECK(task_ == Task::kClassification);
  MET_CHECK(data.size() > 0);
  double hit = 0.0, total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double w = data.weight_of(i);
    if (predict(data.x[i]) == data.y[i]) hit += w;
    total += w;
  }
  return hit / total;
}

double DecisionTree::rmse(const Dataset& data) const {
  MET_CHECK(data.size() > 0);
  double se = 0.0, total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double w = data.weight_of(i);
    const double d = predict(data.x[i]) - data.y[i];
    se += w * d * d;
    total += w;
  }
  return std::sqrt(se / total);
}

}  // namespace metis::tree
