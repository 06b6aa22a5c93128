// Fit oracle for tree::DecisionTree::fit: CART written the plain way.
// Every node copies its rows, sorts them per feature by (value, row index)
// and scans the cut points; a split re-collects each child's rows in
// index order. DecisionTree::fit presorts once and partitions instead, and
// must reproduce this builder's tree bit for bit.
#pragma once

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "metis/tree/cart.h"
#include "metis/tree/dataset.h"

namespace metis::oracle {

struct CartSide {
  tree::Task task;
  std::vector<double> class_w;
  double weight = 0.0, sum_y = 0.0, sum_y2 = 0.0;
  std::size_t count = 0;
  void add(double y, double w) {
    weight += w;
    ++count;
    if (task == tree::Task::kClassification) {
      class_w[static_cast<std::size_t>(y)] += w;
    } else {
      sum_y += w * y;
      sum_y2 += w * y * y;
    }
  }
  void remove(double y, double w) {
    weight -= w;
    --count;
    if (task == tree::Task::kClassification) {
      class_w[static_cast<std::size_t>(y)] -= w;
    } else {
      sum_y -= w * y;
      sum_y2 -= w * y * y;
    }
  }
  [[nodiscard]] double mass() const {  // weight * gini, or SSE
    if (weight <= 0.0) return 0.0;
    if (task == tree::Task::kClassification) {
      double sq = 0.0;
      for (double cw : class_w) sq += cw * cw;
      return weight * (1.0 - sq / (weight * weight));
    }
    return std::max(0.0, sum_y2 - sum_y * sum_y / weight);
  }
};

inline std::unique_ptr<tree::TreeNode> cart_build(
    const tree::Dataset& d, const tree::FitConfig& cfg, std::size_t classes,
    const std::vector<std::size_t>& idx, std::size_t depth) {
  const bool cls = cfg.task == tree::Task::kClassification;
  auto node = std::make_unique<tree::TreeNode>();
  CartSide stats{cfg.task, std::vector<double>(cls ? classes : 0, 0.0)};
  for (std::size_t i : idx) stats.add(d.y[i], d.weight_of(i));
  node->weight_sum = stats.weight;
  node->sample_count = idx.size();
  if (cls) {
    node->class_weights = stats.class_w;
    const auto best = static_cast<std::size_t>(
        std::max_element(stats.class_w.begin(), stats.class_w.end()) -
        stats.class_w.begin());
    node->prediction = static_cast<double>(best);
    node->node_error = stats.weight - stats.class_w[best];
  } else {
    node->prediction = stats.weight > 0.0 ? stats.sum_y / stats.weight : 0.0;
    node->node_error = stats.mass();
  }
  if (depth >= cfg.max_depth || idx.size() < cfg.min_samples_split ||
      stats.mass() <= 1e-12) {
    return node;
  }
  const double parent = stats.mass();
  int best_f = -1;
  double best_t = 0.0, best_dec = cfg.min_impurity_decrease;
  std::vector<std::size_t> sorted = idx;
  for (std::size_t f = 0; f < d.feature_count(); ++f) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return d.x[a][f] < d.x[b][f] || (d.x[a][f] == d.x[b][f] && a < b);
    });
    CartSide left{cfg.task, std::vector<double>(stats.class_w.size(), 0.0)};
    CartSide right = stats;
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
      const std::size_t i = sorted[k];
      left.add(d.y[i], d.weight_of(i));
      right.remove(d.y[i], d.weight_of(i));
      const double v = d.x[i][f], vnext = d.x[sorted[k + 1]][f];
      if (v == vnext || left.count < cfg.min_samples_leaf ||
          right.count < cfg.min_samples_leaf) {
        continue;
      }
      const double dec = parent - left.mass() - right.mass();
      if (dec > best_dec) {
        best_dec = dec;
        best_f = static_cast<int>(f);
        best_t = v + (vnext - v) / 2.0;
      }
    }
  }
  if (best_f < 0) return node;
  std::vector<std::size_t> l, r;
  for (std::size_t i : idx) {
    (d.x[i][static_cast<std::size_t>(best_f)] <= best_t ? l : r).push_back(i);
  }
  node->feature = best_f;
  node->threshold = best_t;
  node->left = cart_build(d, cfg, classes, l, depth + 1);
  node->right = cart_build(d, cfg, classes, r, depth + 1);
  return node;
}

inline tree::DecisionTree cart_fit(const tree::Dataset& d,
                                   const tree::FitConfig& cfg) {
  const std::size_t classes =
      cfg.task == tree::Task::kClassification ? d.class_count() : 0;
  std::vector<std::size_t> idx(d.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return tree::DecisionTree::from_parts(cart_build(d, cfg, classes, idx, 0),
                                        cfg.task, classes, d.feature_names);
}

}  // namespace metis::oracle
