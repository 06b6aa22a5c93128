#include "metis/tree/cart.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "metis/tree/split_kernel.h"
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

// Order-preserving sort key: the unsigned order of the keys is the order
// of the values under <, with -0.0 tied to +0.0. Values are never NaN
// (Dataset::validate).
std::uint64_t sort_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
  return bits >> 63 != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

// Stable LSD radix sort over 11-bit digits of sort_key. Sorting row ids
// that start in index order leaves them ordered by (value, row index),
// the order std::sort of (value, row) pairs gives. A pass whose digit all
// keys share moves nothing, so it is skipped.
class RadixSort {
 public:
  explicit RadixSort(std::size_t n)
      : keys_(n), keys_tmp_(n), ids_tmp_(n), counts_(kPasses * kBuckets) {}

  // ids[0..n) = the row ids ordered by (values[id], id).
  void sort(const double* values, std::uint32_t* ids) {
    const std::size_t n = keys_.size();
    std::fill(counts_.begin(), counts_.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = sort_key(values[i]);
      keys_[i] = key;
      ids[i] = static_cast<std::uint32_t>(i);
      for (unsigned p = 0; p < kPasses; ++p) {
        ++counts_[p * kBuckets + digit(key, p)];
      }
    }
    std::uint64_t* keys = keys_.data();
    std::uint64_t* keys_out = keys_tmp_.data();
    std::uint32_t* from = ids;
    std::uint32_t* to = ids_tmp_.data();
    for (unsigned p = 0; p < kPasses; ++p) {
      std::uint32_t* start = &counts_[p * kBuckets];
      if (start[digit(keys[0], p)] == n) continue;
      std::uint32_t sum = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::uint32_t count = start[b];
        start[b] = sum;
        sum += count;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t at = start[digit(keys[i], p)]++;
        keys_out[at] = keys[i];
        to[at] = from[i];
      }
      std::swap(keys, keys_out);
      std::swap(from, to);
    }
    if (from != ids) std::copy_n(from, n, ids);
  }

 private:
  static constexpr unsigned kDigitBits = 11;
  static constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  static constexpr unsigned kPasses = (64 + kDigitBits - 1) / kDigitBits;

  static std::size_t digit(std::uint64_t key, unsigned pass) {
    return static_cast<std::size_t>(key >> (pass * kDigitBits)) &
           (kBuckets - 1);
  }

  std::vector<std::uint64_t> keys_, keys_tmp_;
  std::vector<std::uint32_t> ids_tmp_;
  std::vector<std::uint32_t> counts_;
};

// Presorted builder. Features are transposed once into column-major
// `cols` (cols[f*n + i] = x[i][f]), and `ord` holds F+1 rows of n row
// ids: row f sorted by (x[i][f], i), row F in index order. A node owns
// [lo, hi) of every row; a split stable-partitions all F+1 rows, so both
// children inherit sorted ranges and no node sorts again. Classification
// with up to detail::kKernelClasses classes scans with the vector
// kernel of split_kernel.h for isa::active(); regression, more classes
// and the kReference level take the scalar scan, which the kernels
// reproduce bit for bit.
struct Builder {
  const FitConfig& cfg;
  detail::SplitScanFn kernel;  // null: the scalar scan
  std::size_t classes;
  std::size_t n;
  std::size_t features;
  std::vector<double> cols;
  const std::vector<double>& y;
  std::vector<double> w;
  std::vector<std::uint8_t> cls;  // class id by row, for the kernels
  std::vector<std::uint32_t> ord;
  std::vector<std::uint8_t> goes_left;  // by row id, for the current split
  std::vector<std::uint32_t> spill;     // right-hand ids during a partition
  SideStats node_stats;                 // the node being built
  SideStats left, right;                // scalar scan scratch
  // node_stats in the kernels' side layout (split_kernel.h).
  alignas(64) double lanes[detail::kSplitLanes] = {};

  Builder(const Dataset& data, const FitConfig& cfg, std::size_t classes)
      : cfg(cfg),
        kernel(cfg.task == Task::kClassification &&
                       classes <= detail::kKernelClasses
                   ? detail::split_scan()
                   : nullptr),
        classes(classes),
        n(data.size()),
        features(data.feature_count()),
        cols(features * n),
        y(data.y),
        w(n),
        cls(kernel != nullptr ? n : 0),
        ord((features + 1) * n),
        goes_left(n),
        spill(n) {
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = data.weight_of(i);
      if (kernel != nullptr) cls[i] = static_cast<std::uint8_t>(y[i]);
      for (std::size_t f = 0; f < features; ++f) cols[f * n + i] = data.x[i][f];
    }
    RadixSort radix(n);
    for (std::size_t f = 0; f < features; ++f) {
      radix.sort(&cols[f * n], &ord[f * n]);
    }
    std::iota(ord.begin() + static_cast<std::ptrdiff_t>(features * n),
              ord.end(), std::uint32_t{0});
    node_stats.init(cfg.task, classes);
    left.init(cfg.task, classes);
    right.init(cfg.task, classes);
  }

  std::unique_ptr<TreeNode> build(std::size_t lo, std::size_t hi,
                                  std::size_t depth) {
    auto node = std::make_unique<TreeNode>();
    const std::uint32_t* by_index = &ord[features * n];
    node_stats.clear(cfg.task);
    for (std::size_t k = lo; k < hi; ++k) {
      node_stats.add(cfg.task, y[by_index[k]], w[by_index[k]]);
    }
    node->weight_sum = node_stats.weight;
    node->sample_count = hi - lo;
    fill_leaf_payload(*node, node_stats);

    // Every cut leaves at least min_leaf rows on each side (a side always
    // holds one row, so a zero min_samples_leaf acts as 1).
    const std::size_t min_leaf =
        std::max<std::size_t>(cfg.min_samples_leaf, 1);
    if (depth >= cfg.max_depth || hi - lo < cfg.min_samples_split ||
        hi - lo < 2 * min_leaf || is_pure(node_stats)) {
      return node;
    }

    const double parent_mass = node_stats.impurity_mass(cfg.task);
    int best_feature = -1;
    std::size_t best_k = detail::kNoCut;
    double best_decrease = cfg.min_impurity_decrease;
    detail::SplitScan scan{.node = lanes,
                           .lo = lo,
                           .hi = hi,
                           .min_leaf = min_leaf,
                           .parent_mass = parent_mass};
    if (kernel != nullptr) {
      std::copy_n(node_stats.class_w.begin(), classes, lanes);
      lanes[detail::kSplitLanes - 1] = node_stats.weight;
      scan.cls = cls.data();
      scan.w = w.data();
    }
    for (std::size_t f = 0; f < features; ++f) {
      scan.sorted = &ord[f * n];
      scan.col = &cols[f * n];
      const std::size_t k = kernel != nullptr
                                ? kernel(scan, best_decrease)
                                : scalar_scan(scan, best_decrease);
      if (k != detail::kNoCut) {
        best_feature = static_cast<int>(f);
        best_k = k;
      }
    }

    if (best_feature < 0) return node;  // no admissible split

    const std::size_t bf = static_cast<std::size_t>(best_feature);
    const std::uint32_t* sorted = &ord[bf * n];
    const double* col = &cols[bf * n];
    const double v = col[sorted[best_k]];
    const double vnext = col[sorted[best_k + 1]];
    const double threshold = v + (vnext - v) / 2.0;
    std::size_t left_count = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = by_index[k];
      goes_left[i] = col[i] <= threshold ? 1 : 0;
      left_count += goes_left[i];
    }
    MET_CHECK(left_count > 0 && left_count < hi - lo);
    for (std::size_t r = 0; r <= features; ++r) partition(&ord[r * n], lo, hi);

    node->feature = best_feature;
    node->threshold = threshold;
    node->left = build(lo, lo + left_count, depth + 1);
    node->right = build(lo + left_count, hi, depth + 1);
    return node;
  }

  // One feature's cut points in (value, row index) order, with the same
  // contract as detail::SplitScanFn.
  std::size_t scalar_scan(const detail::SplitScan& s, double& best) {
    left.clear(cfg.task);
    right = node_stats;
    std::size_t best_k = detail::kNoCut;
    for (std::size_t k = s.lo; k + 1 < s.hi; ++k) {
      const std::uint32_t i = s.sorted[k];
      left.add(cfg.task, y[i], w[i]);
      right.remove(cfg.task, y[i], w[i]);
      const double v = s.col[i];
      const double vnext = s.col[s.sorted[k + 1]];
      if (v == vnext) continue;  // not a valid cut point
      if (left.count < s.min_leaf || right.count < s.min_leaf) continue;
      const double decrease = s.parent_mass - left.impurity_mass(cfg.task) -
                              right.impurity_mass(cfg.task);
      if (decrease > best) {
        best = decrease;
        best_k = k;
      }
    }
    return best_k;
  }

  // Stable partition of row[lo, hi) by goes_left: left ids first. Each id
  // is written to both places and one cursor advances (out <= k, so no
  // unread id is overwritten): no branch on the split.
  void partition(std::uint32_t* row, std::size_t lo, std::size_t hi) {
    std::size_t out = lo;
    std::size_t spilled = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const std::uint32_t i = row[k];
      const std::size_t to_left = goes_left[i];
      row[out] = i;
      spill[spilled] = i;
      out += to_left;
      spilled += 1 - to_left;
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
  const std::size_t classes =
      cfg.task == Task::kClassification ? data.class_count() : 0;
  Builder builder(data, cfg, classes);
  return DecisionTree::from_parts(builder.build(0, data.size(), 0), cfg.task,
                                  classes, data.feature_names);
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
