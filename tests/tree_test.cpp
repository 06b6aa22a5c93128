// Tests for the CART trees, CCP pruning, IO round-trips, and the flat
// deployment representation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cart_oracle.h"
#include "every_level.h"

#include "metis/tree/cart.h"
#include "metis/tree/dataset.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/prune.h"
#include "metis/tree/split_kernel.h"
#include "metis/tree/tree_io.h"
#include "metis/util/atomic_file.h"
#include "metis/util/rng.h"

namespace metis::tree {
namespace {

// y = 1 iff x0 > 0.5, with x1 pure noise.
Dataset threshold_dataset(std::size_t n, metis::Rng& rng) {
  Dataset d;
  d.feature_names = {"x0", "x1"};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    d.add({x0, x1}, x0 > 0.5 ? 1.0 : 0.0);
  }
  return d;
}

// Checkerboard: y = xor(x0>0.5, x1>0.5) — needs depth >= 2.
Dataset xor_dataset(std::size_t n, metis::Rng& rng) {
  Dataset d;
  d.feature_names = {"x0", "x1"};
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const bool label = (x0 > 0.5) != (x1 > 0.5);
    d.add({x0, x1}, label ? 1.0 : 0.0);
  }
  return d;
}

TEST(Dataset, AddAndValidate) {
  Dataset d;
  d.add({1.0, 2.0}, 0.0);
  d.add({3.0, 4.0}, 1.0, 2.5);
  d.validate();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.weight_of(0), 1.0);
  EXPECT_DOUBLE_EQ(d.weight_of(1), 2.5);
  EXPECT_EQ(d.class_count(), 2u);
}

TEST(Dataset, RejectsRaggedRows) {
  Dataset d;
  d.add({1.0, 2.0}, 0.0);
  EXPECT_THROW(d.add({1.0}, 0.0), std::logic_error);
}

TEST(Dataset, RejectsNonPositiveWeight) {
  Dataset d;
  EXPECT_THROW(d.add({1.0}, 0.0, 0.0), std::logic_error);
}

TEST(Dataset, RejectsNonFiniteWeight) {
  const double inf = std::numeric_limits<double>::infinity();
  Dataset d;
  EXPECT_THROW(d.add({1.0}, 0.0, inf), std::logic_error);
  EXPECT_THROW(d.add({1.0}, 0.0, std::nan("")), std::logic_error);
  d.add({1.0}, 0.0, 2.0);
  d.add({2.0}, 1.0, 3.0);
  d.weight[1] = inf;  // set directly, past add()'s check
  EXPECT_THROW(d.validate(), std::logic_error);
  EXPECT_THROW((void)DecisionTree::fit(d, FitConfig{}), std::logic_error);
}

TEST(Dataset, ClassFrequenciesWeighted) {
  Dataset d;
  d.add({0.0}, 0.0, 3.0);
  d.add({1.0}, 1.0, 1.0);
  auto freq = d.class_frequencies();
  EXPECT_DOUBLE_EQ(freq[0], 0.75);
  EXPECT_DOUBLE_EQ(freq[1], 0.25);
}

TEST(Dataset, OversampleRaisesClassFrequency) {
  metis::Rng rng(1);
  Dataset d;
  for (int i = 0; i < 990; ++i) d.add({rng.uniform()}, 0.0);
  for (int i = 0; i < 10; ++i) d.add({rng.uniform()}, 1.0);
  Dataset o = d.oversample_class(1, 0.05);
  EXPECT_GE(o.class_frequencies()[1], 0.05);
  // Majority class rows are untouched.
  EXPECT_DOUBLE_EQ(o.class_frequencies()[0] + o.class_frequencies()[1], 1.0);
}

TEST(Dataset, OversampleNoopWhenAlreadyFrequent) {
  Dataset d;
  d.add({0.0}, 0.0);
  d.add({1.0}, 1.0);
  Dataset o = d.oversample_class(1, 0.3);
  EXPECT_EQ(o.size(), d.size());
}

TEST(Cart, LearnsSingleThreshold) {
  metis::Rng rng(2);
  Dataset d = threshold_dataset(500, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  EXPECT_GE(t.accuracy(d), 0.999);
  // The first split should be on x0 near 0.5.
  ASSERT_FALSE(t.root()->is_leaf());
  EXPECT_EQ(t.root()->feature, 0);
  EXPECT_NEAR(t.root()->threshold, 0.5, 0.05);
}

TEST(Cart, LearnsXorWithDepthTwo) {
  metis::Rng rng(3);
  Dataset d = xor_dataset(800, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  EXPECT_GE(t.accuracy(d), 0.99);
  EXPECT_GE(t.depth(), 2u);
}

TEST(Cart, RespectsMaxDepth) {
  metis::Rng rng(4);
  Dataset d = xor_dataset(500, rng);
  FitConfig cfg;
  cfg.max_depth = 1;
  DecisionTree t = DecisionTree::fit(d, cfg);
  EXPECT_LE(t.depth(), 1u);
}

TEST(Cart, RespectsMinSamplesLeaf) {
  metis::Rng rng(5);
  Dataset d = threshold_dataset(100, rng);
  FitConfig cfg;
  cfg.min_samples_leaf = 40;
  DecisionTree t = DecisionTree::fit(d, cfg);
  // Any leaf must hold >= 40 samples; with 100 samples that caps leaves at 2.
  EXPECT_LE(t.leaf_count(), 2u);
}

TEST(Cart, WeightsInfluenceSplits) {
  // Two conflicting labels at the same x; weight decides the majority.
  Dataset d;
  d.add({0.0}, 0.0, 10.0);
  d.add({0.0}, 1.0, 1.0);
  d.add({1.0}, 1.0, 1.0);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{0.0}), 0.0);
}

TEST(Cart, RegressionFitsPiecewiseConstant) {
  metis::Rng rng(6);
  Dataset d;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform();
    d.add({x}, x > 0.5 ? 10.0 : -10.0);
  }
  FitConfig cfg;
  cfg.task = Task::kRegression;
  DecisionTree t = DecisionTree::fit(d, cfg);
  EXPECT_NEAR(t.predict(std::vector<double>{0.2}), -10.0, 1e-9);
  EXPECT_NEAR(t.predict(std::vector<double>{0.9}), 10.0, 1e-9);
  EXPECT_LT(t.rmse(d), 1e-9);
}

TEST(Cart, RegressionPredictsMeanOnNoise) {
  metis::Rng rng(7);
  Dataset d;
  for (int i = 0; i < 200; ++i) d.add({0.5}, rng.normal(3.0, 1.0));
  FitConfig cfg;
  cfg.task = Task::kRegression;
  DecisionTree t = DecisionTree::fit(d, cfg);
  // x is constant, so no split is possible: prediction = global mean.
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_NEAR(t.predict(std::vector<double>{0.5}), 3.0, 0.25);
}

TEST(Cart, PredictDistributionNormalized) {
  metis::Rng rng(8);
  Dataset d = threshold_dataset(200, rng);
  FitConfig cfg;
  cfg.max_depth = 2;
  DecisionTree t = DecisionTree::fit(d, cfg);
  auto dist = t.predict_distribution(std::vector<double>{0.7, 0.1});
  double total = 0.0;
  for (double p : dist) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Cart, EmptyDatasetRejected) {
  Dataset d;
  FitConfig cfg;
  EXPECT_THROW(DecisionTree::fit(d, cfg), std::logic_error);
}

TEST(Prune, ReducesToRequestedLeafCount) {
  metis::Rng rng(9);
  Dataset d = xor_dataset(600, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  const std::size_t before = t.leaf_count();
  ASSERT_GT(before, 6u);
  prune_to_leaf_count(t, 6);
  EXPECT_LE(t.leaf_count(), 6u);
  // XOR is representable with 4 leaves, but CART's greedy root split on
  // XOR data is arbitrary (zero marginal gain), so allow a small budget of
  // extra leaves; CCP must still keep the informative splits.
  EXPECT_GE(t.accuracy(d), 0.9);
}

TEST(Prune, PruneToOneLeafGivesMajority) {
  metis::Rng rng(10);
  Dataset d = threshold_dataset(100, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  prune_to_leaf_count(t, 1);
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_TRUE(t.root()->is_leaf());
}

TEST(Prune, WeakestLinkNonNegativeOnFittedTree) {
  metis::Rng rng(11);
  Dataset d = xor_dataset(300, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  ASSERT_FALSE(t.root()->is_leaf());
  EXPECT_GE(weakest_link_value(*t.root()), -1e-9);
}

TEST(Prune, AlphaZeroKeepsUsefulSplits) {
  metis::Rng rng(12);
  Dataset d = threshold_dataset(400, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  prune_with_alpha(t, 0.0);
  // The x0 split genuinely reduces error, so it must survive alpha = 0.
  EXPECT_GE(t.accuracy(d), 0.999);
}

TEST(Prune, LargeAlphaCollapsesEverything) {
  metis::Rng rng(13);
  Dataset d = xor_dataset(300, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  prune_with_alpha(t, 1e9);
  EXPECT_EQ(t.leaf_count(), 1u);
}

TEST(TreeIo, SerializeRoundTripPreservesPredictions) {
  metis::Rng rng(14);
  Dataset d = xor_dataset(400, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  DecisionTree copy = deserialize(serialize(t));
  EXPECT_EQ(copy.leaf_count(), t.leaf_count());
  EXPECT_EQ(copy.class_count(), t.class_count());
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {rng.uniform(), rng.uniform()};
    EXPECT_DOUBLE_EQ(copy.predict(x), t.predict(x));
  }
}

TEST(TreeIo, RegressionRoundTrip) {
  metis::Rng rng(15);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform();
    d.add({x}, 3.0 * x);
  }
  FitConfig cfg;
  cfg.task = Task::kRegression;
  cfg.max_depth = 4;
  DecisionTree t = DecisionTree::fit(d, cfg);
  DecisionTree copy = deserialize(serialize(t));
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {rng.uniform()};
    EXPECT_DOUBLE_EQ(copy.predict(x), t.predict(x));
  }
}

TEST(TreeIo, DeserializeRejectsGarbage) {
  EXPECT_THROW(deserialize("not-a-tree"), std::logic_error);
}

TEST(TreeIo, PrintShowsFeatureNamesAndLabels) {
  metis::Rng rng(16);
  Dataset d = threshold_dataset(300, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  std::ostringstream os;
  PrintOptions opts;
  opts.class_labels = {"low", "high"};
  print_tree(t, os, opts);
  EXPECT_NE(os.str().find("x0 <= "), std::string::npos);
  EXPECT_NE(os.str().find("high"), std::string::npos);
}

TEST(TreeIo, ExplainDecisionTracesPath) {
  metis::Rng rng(17);
  Dataset d = threshold_dataset(300, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  PrintOptions opts;
  opts.class_labels = {"low", "high"};
  const std::string rule =
      explain_decision(t, std::vector<double>{0.9, 0.5}, opts);
  EXPECT_NE(rule.find("x0"), std::string::npos);
  EXPECT_NE(rule.find("-> high"), std::string::npos);
}

TEST(FlatTree, MatchesPointerTreeEverywhere) {
  metis::Rng rng(18);
  Dataset d = xor_dataset(500, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  FlatTree flat = FlatTree::compile(t);
  EXPECT_EQ(flat.node_count(), t.node_count());
  for (int i = 0; i < 500; ++i) {
    std::vector<double> x = {rng.uniform(), rng.uniform()};
    EXPECT_DOUBLE_EQ(flat.predict(x), t.predict(x));
  }
}

TEST(FlatTree, MemoryFootprintScalesWithNodes) {
  metis::Rng rng(19);
  Dataset d = xor_dataset(500, rng);
  FitConfig cfg;
  DecisionTree big = DecisionTree::fit(d, cfg);
  FitConfig small_cfg;
  small_cfg.max_depth = 1;
  DecisionTree small = DecisionTree::fit(d, small_cfg);
  FlatTree fb = FlatTree::compile(big);
  FlatTree fs = FlatTree::compile(small);
  EXPECT_GT(fb.memory_bytes(), fs.memory_bytes());
  EXPECT_EQ(fs.memory_bytes(), fs.node_count() * (4 + 8 + 4 + 4));
}

// Property sweep: pruning never increases leaf count and never breaks
// prediction validity, across a range of leaf budgets.
class PruneSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PruneSweep, PrunedTreePredictsValidClasses) {
  metis::Rng rng(20);
  Dataset d = xor_dataset(600, rng);
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  prune_to_leaf_count(t, GetParam());
  EXPECT_LE(t.leaf_count(), GetParam());
  for (int i = 0; i < 50; ++i) {
    const double p = t.predict(std::vector<double>{rng.uniform(),
                                                   rng.uniform()});
    EXPECT_TRUE(p == 0.0 || p == 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafBudgets, PruneSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 64));


// ---- clone -------------------------------------------------------------------

TEST(Clone, DeepCopyIsIndependent) {
  Dataset d;
  metis::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.add({x, rng.uniform(0.0, 1.0)}, x > 0.5 ? 1.0 : 0.0);
  }
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  DecisionTree c = t.clone();
  EXPECT_EQ(c.leaf_count(), t.leaf_count());
  EXPECT_EQ(c.node_count(), t.node_count());
  EXPECT_EQ(c.class_count(), t.class_count());
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    EXPECT_DOUBLE_EQ(c.predict(x), t.predict(x));
  }
  // Pruning the clone must not disturb the original.
  const std::size_t before = t.leaf_count();
  prune_to_leaf_count(c, 2);
  EXPECT_EQ(t.leaf_count(), before);
  EXPECT_LE(c.leaf_count(), 2u);
}

TEST(Clone, PreservesClassDistributions) {
  Dataset d;
  for (int i = 0; i < 60; ++i) {
    d.add({static_cast<double>(i % 3)}, static_cast<double>(i % 3));
  }
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  DecisionTree c = t.clone();
  const std::vector<double> probe = {1.0};
  EXPECT_EQ(c.predict_distribution(probe), t.predict_distribution(probe));
}


// ---- C code emission (the §6.4 SmartNIC artifact) -----------------------------

TEST(EmitC, ClassificationTreeEmitsBranchesAndReturns) {
  Dataset d;
  d.feature_names = {"size", "sent"};
  for (int i = 0; i < 100; ++i) {
    const double size = i * 0.01;
    d.add({size, 0.5}, size > 0.5 ? 1.0 : 0.0);
  }
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  const std::string src = emit_c_source(t, "tree_priority");
  EXPECT_NE(src.find("int tree_priority(const double* x)"),
            std::string::npos);
  EXPECT_NE(src.find("if (x[0] <="), std::string::npos);
  EXPECT_NE(src.find("/* size */"), std::string::npos);
  // One return per leaf; one if per internal node.
  std::size_t returns = 0, ifs = 0;
  for (std::size_t p = src.find("return"); p != std::string::npos;
       p = src.find("return", p + 1)) {
    ++returns;
  }
  for (std::size_t p = src.find("if ("); p != std::string::npos;
       p = src.find("if (", p + 1)) {
    ++ifs;
  }
  EXPECT_EQ(returns, t.leaf_count());
  EXPECT_EQ(ifs, t.node_count() - t.leaf_count());
  // Balanced braces.
  long depth = 0;
  for (char c : src) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(EmitC, RegressionTreeReturnsDouble) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.add({i * 0.1}, i * 0.05);
  FitConfig cfg;
  cfg.task = Task::kRegression;
  cfg.max_depth = 3;
  DecisionTree t = DecisionTree::fit(d, cfg);
  const std::string src = emit_c_source(t, "threshold_bytes");
  EXPECT_NE(src.find("double threshold_bytes(const double* x)"),
            std::string::npos);
  EXPECT_EQ(src.find("int threshold_bytes"), std::string::npos);
}

TEST(EmitC, MirrorsTreePredictions) {
  // The emitted source is exact: evaluate it with a tiny interpreter on
  // the same inputs and compare with predict(). (We parse our own output
  // rather than invoking a C compiler in the test environment.)
  Dataset d;
  metis::Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(0.0, 1.0), b = rng.uniform(0.0, 1.0);
    d.add({a, b}, a > 0.6 ? 2.0 : (b > 0.3 ? 1.0 : 0.0));
  }
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  const std::string src = emit_c_source(t, "f");

  // Interpreter over the emitted text: walk lines, maintain a stack.
  auto eval = [&](const std::vector<double>& x) -> int {
    std::istringstream in(src);
    std::string line;
    int suppress = 0;  // depth of branches we are skipping
    while (std::getline(in, line)) {
      const auto ifpos = line.find("if (x[");
      const auto elsepos = line.find("} else {");
      const auto retpos = line.find("return ");
      if (suppress > 0) {
        if (ifpos != std::string::npos) {
          ++suppress;
        } else if (elsepos != std::string::npos) {
          // entering the else of the suppressed if at depth 1 resumes
          if (suppress == 1) suppress = 0;
        } else if (line.find('}') != std::string::npos) {
          --suppress;
        }
        continue;
      }
      if (ifpos != std::string::npos) {
        const std::size_t fi = std::stoul(line.substr(ifpos + 6));
        const double th = std::stod(line.substr(line.find("<=") + 2));
        if (x[fi] <= th) {
          continue;          // take the then-branch
        }
        suppress = 1;        // skip until the matching else
        continue;
      }
      if (elsepos != std::string::npos) {
        suppress = 1;        // we already took the then-branch: skip else
        continue;
      }
      if (retpos != std::string::npos) {
        return std::stoi(line.substr(retpos + 7));
      }
    }
    ADD_FAILURE() << "no return reached";
    return -1;
  };

  metis::Rng probe(23);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {probe.uniform(0.0, 1.0),
                             probe.uniform(0.0, 1.0)};
    EXPECT_EQ(eval(x), static_cast<int>(t.predict(x)));
  }
}


TEST(CollapseRedundant, MergesEqualPredictionLeaves) {
  // Build by hand: root splits, both children predict class 1 (with
  // different class distributions, as CCP can leave behind).
  auto left = std::make_unique<TreeNode>();
  left->prediction = 1.0;
  left->class_weights = {1.0, 5.0};
  auto right = std::make_unique<TreeNode>();
  right->prediction = 1.0;
  right->class_weights = {2.0, 3.0};
  auto root = std::make_unique<TreeNode>();
  root->feature = 0;
  root->threshold = 0.5;
  root->prediction = 1.0;
  root->class_weights = {3.0, 8.0};
  root->left = std::move(left);
  root->right = std::move(right);
  DecisionTree t = DecisionTree::from_parts(std::move(root),
                                            Task::kClassification, 2, {"x"});
  EXPECT_EQ(t.leaf_count(), 2u);
  EXPECT_EQ(collapse_redundant_splits(t), 1u);
  EXPECT_EQ(t.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{0.1}), 1.0);
  EXPECT_DOUBLE_EQ(t.predict(std::vector<double>{0.9}), 1.0);
}

TEST(CollapseRedundant, PreservesPredictionsOnRealTree) {
  Dataset d;
  metis::Rng rng(29);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(0.0, 1.0), b = rng.uniform(0.0, 1.0);
    d.add({a, b}, a > 0.5 ? 1.0 : 0.0);
  }
  FitConfig cfg;
  DecisionTree t = DecisionTree::fit(d, cfg);
  prune_to_leaf_count(t, 12);
  DecisionTree before = t.clone();
  collapse_redundant_splits(t);
  EXPECT_LE(t.leaf_count(), before.leaf_count());
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    EXPECT_DOUBLE_EQ(t.predict(x), before.predict(x));
  }
}

// ---- presorted fit and memoized CCP vs their oracles -----------------------

// An ABR-shaped distillation dataset: the nine interpretable features of
// abr::tree_feature_names (bitrate history on the 6-rung ladder, buffer
// and download times quantized the way the simulator reports them), six
// actions, Eq. 1 style positive weights. Quantization makes ties the
// common case, which is what the tie order pins.
Dataset abr_shaped_dataset(std::size_t n, std::uint64_t seed) {
  const double ladder[] = {300, 750, 1200, 1850, 2850, 4300};
  metis::Rng rng(seed);
  Dataset d;
  d.feature_names = {"rt",  "theta_t", "theta_t-1", "theta_t-2", "theta_hm5",
                     "B",   "Tt",      "Tt-1",      "chunks_left"};
  for (std::size_t i = 0; i < n; ++i) {
    const double rt = ladder[rng.uniform_int(6)];
    const double th0 = std::round(rng.uniform(0.2, 5.0) * 10.0) / 10.0;
    const double th1 = std::round(rng.uniform(0.2, 5.0) * 10.0) / 10.0;
    const double th2 = std::round(rng.uniform(0.2, 5.0) * 10.0) / 10.0;
    const double hm = std::round(3.0 / (1.0 / th0 + 1.0 / th1 + 1.0 / th2) *
                                 10.0) / 10.0;
    const double buffer = std::round(rng.uniform(0.0, 60.0) * 2.0) / 2.0;
    const double t0 = std::round(rng.uniform(0.1, 8.0) * 4.0) / 4.0;
    const double t1 = std::round(rng.uniform(0.1, 8.0) * 4.0) / 4.0;
    const double left = static_cast<double>(rng.uniform_int(48));
    // Rate-based choice, pushed up by a full buffer, with label noise.
    std::size_t a = 0;
    while (a + 1 < 6 && ladder[a + 1] <= hm * 1000.0 * (0.6 + buffer / 60.0)) {
      ++a;
    }
    if (rng.uniform() < 0.1) a = rng.uniform_int(6);
    const double w = std::ceil(rng.uniform(0.05, 4.0) * 8.0) / 8.0;
    d.add({rt, th0, th1, th2, hm, buffer, t0, t1, left},
          static_cast<double>(a), w);
  }
  return d;
}

// A regression dataset shaped like the flowsched/AuTO thresholds: a
// piecewise target over quantized flow features plus noise.
Dataset regression_dataset(std::size_t n, std::uint64_t seed, bool weighted,
                           double grid) {
  metis::Rng rng(seed);
  Dataset d;
  d.feature_names = {"size", "age", "load"};
  for (std::size_t i = 0; i < n; ++i) {
    const double a = std::round(rng.uniform(0.0, 1.0) / grid) * grid;
    const double b = std::round(rng.uniform(0.0, 1.0) / grid) * grid;
    const double c = std::round(rng.uniform(0.0, 1.0) / grid) * grid;
    const double y = (a > 0.4 ? 10.0 : 2.0) + 3.0 * b * c + rng.normal(0, 0.3);
    d.add({a, b, c}, y, weighted ? rng.uniform(0.1, 3.0) : 1.0);
  }
  return d;
}

// `classes` labels over four features: two quantized to a few levels
// (ties), one continuous, one with signed zeros. Weights span the Eq. 1
// range. Every label appears, so class_count() == classes.
Dataset k_class_dataset(std::size_t classes, std::size_t n,
                        std::uint64_t seed) {
  metis::Rng rng(seed);
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(rng.uniform_int(6)) / 5.0;
    const double b = static_cast<double>(rng.uniform_int(3));
    const double c = rng.uniform(-1.0, 1.0);
    const double z = rng.uniform_int(2) == 0 ? -0.0 : 0.0;
    std::size_t label =
        static_cast<std::size_t>((a + 0.5 * b + (c > 0.2 ? 1.0 : 0.0)) *
                                 static_cast<double>(classes) / 3.0) %
        classes;
    if (rng.uniform() < 0.1) label = rng.uniform_int(classes);
    if (i < classes) label = i;
    d.add({a, b, c, z}, static_cast<double>(label),
          std::exp(rng.uniform(std::log(1e-3), std::log(130.0))));
  }
  return d;
}

struct FitCase {
  std::string name;
  Task task;
  Dataset data;
};

std::vector<FitCase> fit_cases() {
  std::vector<FitCase> cases;
  auto cls = [&](std::string name, Dataset d) {
    cases.push_back({std::move(name), Task::kClassification, std::move(d)});
  };
  metis::Rng rng(41);
  {
    Dataset d = xor_dataset(300, rng);
    cls("xor_unweighted", d);
    Dataset w;
    w.feature_names = d.feature_names;
    for (std::size_t i = 0; i < d.size(); ++i) {
      w.add(d.x[i], d.y[i], rng.uniform(0.1, 3.0));
    }
    cls("xor_weighted", w);
  }
  cls("abr_shaped", abr_shaped_dataset(500, 42));
  {
    // The same rows in reverse: ties now break the other way round.
    const Dataset d = abr_shaped_dataset(300, 46);
    Dataset rev;
    rev.feature_names = d.feature_names;
    for (std::size_t i = d.size(); i-- > 0;) {
      rev.add(d.x[i], d.y[i], d.weight_of(i));
    }
    cls("abr_shaped_reversed", rev);
  }
  {
    // Features on a 5-level grid and a binary flag: almost every value
    // is tied, and -0.0 ties with 0.0.
    Dataset d;
    for (int i = 0; i < 400; ++i) {
      const double a = static_cast<double>(rng.uniform_int(5)) / 4.0;
      const double b = static_cast<double>(rng.uniform_int(2));
      const double c = rng.uniform_int(2) == 0 ? -0.0 : 0.0;
      const double label = a + b > 1.0 ? 2.0 : (a > 0.3 ? 1.0 : 0.0);
      d.add({a, b, c}, rng.uniform() < 0.15 ? 0.0 : label,
            static_cast<double>(1 + rng.uniform_int(3)));
    }
    cls("quantized_heavy_ties", d);
  }
  {
    // Every row four times, sometimes with a conflicting label.
    Dataset d;
    for (int i = 0; i < 60; ++i) {
      const std::vector<double> x = {rng.uniform(), rng.uniform()};
      for (int copy = 0; copy < 4; ++copy) {
        d.add(x, (x[0] > 0.5) != (copy == 3 && i % 3 == 0) ? 1.0 : 0.0);
      }
    }
    cls("duplicate_rows", d);
  }
  {
    // §6.3's debugging fix: a rare action duplicated up to 30% of the
    // weight, the copies at a fixed weight.
    const Dataset abr = abr_shaped_dataset(600, 43);
    Dataset skewed;
    skewed.feature_names = abr.feature_names;
    for (std::size_t i = 0; i < abr.size(); ++i) {
      if (abr.y[i] != 0.0 || i % 5 == 0) {
        skewed.add(abr.x[i], abr.y[i], abr.weight_of(i));
      }
    }
    cls("oversample_class", skewed.oversample_class(0, 0.3, 1.0));
  }
  {
    Dataset d;
    for (int i = 0; i < 50; ++i) d.add({rng.uniform(), rng.uniform()}, 0.0);
    cls("single_class", d);
  }
  {
    Dataset d;
    d.add({0.3, 0.7}, 1.0, 2.0);
    cls("single_row", d);
  }
  // Up to kKernelClasses classes the vector kernels scan; 8 and 9 fill
  // more lanes than a side has and take the scalar scan.
  for (std::size_t k : {1, 2, 6, 7, 8, 9}) {
    cls("classes_" + std::to_string(k), k_class_dataset(k, 320, 50 + k));
  }
  {
    // Signed zeros among heavy ties in every feature: -0.0 and 0.0 are
    // one value to the sort and to the cut points. Features 3 and 4 copy
    // feature 0 with every zero made +0.0 or -0.0: the three tie at every
    // cut, bit for bit, only if each zero group is scanned in row order.
    Dataset d;
    const double levels[] = {-1.5, -0.0, 0.0, 0.25, 2.0};
    for (int i = 0; i < 360; ++i) {
      std::vector<double> x(3);
      for (double& v : x) v = levels[rng.uniform_int(5)];
      x.push_back(x[0] == 0.0 ? 0.0 : x[0]);
      x.push_back(x[0] == 0.0 ? -0.0 : x[0]);
      const double label = x[0] > 0.1 ? (x[1] < 0.0 ? 5.0 : 4.0)
                                      : static_cast<double>(i % 4);
      // Weights whose sums round: the order rows enter a tie group shows.
      d.add(std::move(x), label,
            std::exp(rng.uniform(std::log(1e-3), std::log(130.0))));
    }
    cls("signed_zero_ties", d);
  }
  {
    // Eq. 1 style advantage weights, 1e-3 to 130, on the ABR shape.
    const Dataset abr = abr_shaped_dataset(500, 51);
    Dataset d;
    d.feature_names = abr.feature_names;
    for (std::size_t i = 0; i < abr.size(); ++i) {
      d.add(abr.x[i], abr.y[i],
            std::exp(rng.uniform(std::log(1e-3), std::log(130.0))));
    }
    cls("eq1_weights", d);
  }
  {
    // Weights 2^53 apart: the light rows vanish from every sum, so the
    // right side of the one cut is left with a weight that cancels below
    // zero (see SplitKernel.SideWhoseWeightCancelsCountsAsPure). Such a
    // side counts as pure, and with a negative min_impurity_decrease its
    // zero-decrease cut is taken.
    Dataset d;
    for (int i = 0; i < 6; ++i) {
      d.add({i < 4 ? 0.0 : 1.0}, static_cast<double>(i % 2),
            i < 2 ? 1e17 : 1.0);
    }
    cls("absorbed_weights", d);
  }
  cases.push_back({"regression_unweighted", Task::kRegression,
                   regression_dataset(400, 44, false, 0.001)});
  cases.push_back({"regression_weighted_quantized", Task::kRegression,
                   regression_dataset(400, 45, true, 0.1)});
  {
    Dataset d;
    d.add({1.0, 2.0}, 3.5, 0.5);
    cases.push_back({"regression_single_row", Task::kRegression, d});
  }
  return cases;
}

std::vector<FitConfig> fit_configs(Task task, std::size_t n) {
  std::vector<FitConfig> cfgs;
  for (std::size_t leaf : {1, 2, 4}) {
    for (std::size_t depth : {1, 3, 30}) {
      FitConfig cfg;
      cfg.task = task;
      cfg.min_samples_leaf = leaf;
      cfg.max_depth = depth;
      cfgs.push_back(cfg);
    }
  }
  FitConfig half;  // no node can give both sides this many rows
  half.task = task;
  half.min_samples_leaf = n / 2 + 1;
  cfgs.push_back(half);
  FitConfig gated;
  gated.task = task;
  gated.min_impurity_decrease = 0.5;
  cfgs.push_back(gated);
  FitConfig split;
  split.task = task;
  split.min_samples_split = 12;
  split.min_samples_leaf = 2;
  cfgs.push_back(split);
  FitConfig eager;  // any admissible cut, even one with no decrease
  eager.task = task;
  eager.min_impurity_decrease = -1.0;
  eager.min_samples_leaf = 2;
  cfgs.push_back(eager);
  FitConfig coarse;
  coarse.task = task;
  coarse.min_samples_split = n / 3 + 1;
  coarse.min_samples_leaf = 4;
  coarse.max_depth = 6;
  cfgs.push_back(coarse);
  return cfgs;
}

std::string describe(const FitConfig& cfg) {
  std::ostringstream os;
  os << "leaf=" << cfg.min_samples_leaf << " depth=" << cfg.max_depth
     << " split=" << cfg.min_samples_split
     << " min_dec=" << cfg.min_impurity_decrease;
  return os.str();
}

METIS_AT_EVERY_LEVEL(CartOracle);

// Every case under every FitConfig, fitted by fit() at each level this
// CPU runs (kReference: the scalar scan on every task), serializes byte
// for byte like the oracle.
TEST_P(CartOracle, EveryCaseFitsByteIdenticalToPerNodeSortBuilder) {
  std::size_t compared = 0;
  for (const FitCase& c : fit_cases()) {
    for (const FitConfig& cfg : fit_configs(c.task, c.data.size())) {
      EXPECT_EQ(serialize(DecisionTree::fit(c.data, cfg)),
                serialize(oracle::cart_fit(c.data, cfg)))
          << c.name << " " << describe(cfg);
      ++compared;
    }
  }
  EXPECT_EQ(compared, 21u * 14u);
}

// One node's split scan written the plain way, over the oracle's sides:
// the first strict maximum above `best` in (value, row id) order, or
// kNoCut. Leaves the maximum decrease in `best`.
std::size_t reference_scan(const std::vector<double>& x,
                           const std::vector<std::uint8_t>& y,
                           const std::vector<double>& w,
                           const std::vector<std::uint32_t>& sorted,
                           std::size_t classes, std::size_t min_leaf,
                           double& best) {
  oracle::CartSide stats{Task::kClassification,
                         std::vector<double>(classes, 0.0)};
  for (std::size_t i = 0; i < x.size(); ++i) stats.add(y[i], w[i]);
  const double parent = stats.mass();
  oracle::CartSide left{Task::kClassification,
                        std::vector<double>(classes, 0.0)};
  oracle::CartSide right = stats;
  std::size_t best_k = detail::kNoCut;
  for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
    left.add(y[sorted[k]], w[sorted[k]]);
    right.remove(y[sorted[k]], w[sorted[k]]);
    if (x[sorted[k]] == x[sorted[k + 1]] || left.count < min_leaf ||
        right.count < min_leaf) {
      continue;
    }
    const double dec = parent - left.mass() - right.mass();
    if (dec > best) {
      best = dec;
      best_k = k;
    }
  }
  return best_k;
}

// Runs the active level's split kernel (none at kReference) on one node,
// the rows (x, y, w) presorted as `sorted`, and checks it against
// reference_scan: the same position and the same bits of the winning
// decrease, so an operation out of order in any lane shows even where it
// would not move a tree's cut. Leaves the reference's maximum in `best`
// and returns its position.
std::size_t expect_kernels_match_plain_scan(
    const std::vector<double>& x, const std::vector<std::uint8_t>& y,
    const std::vector<double>& w, const std::vector<std::uint32_t>& sorted,
    std::size_t classes, std::size_t min_leaf, double& best) {
  best = -std::numeric_limits<double>::infinity();
  const std::size_t want_k =
      reference_scan(x, y, w, sorted, classes, min_leaf, best);
  oracle::CartSide stats{Task::kClassification,
                         std::vector<double>(classes, 0.0)};
  for (std::size_t i = 0; i < x.size(); ++i) stats.add(y[i], w[i]);
  double lanes[detail::kSplitLanes] = {};
  std::copy(stats.class_w.begin(), stats.class_w.end(), lanes);
  lanes[detail::kSplitLanes - 1] = stats.weight;
  const detail::SplitScan scan{.sorted = sorted.data(),
                               .col = x.data(),
                               .cls = y.data(),
                               .w = w.data(),
                               .node = lanes,
                               .lo = 0,
                               .hi = x.size(),
                               .min_leaf = min_leaf,
                               .parent_mass = stats.mass()};
  if (const detail::SplitScanFn kernel = detail::split_scan()) {
    double got = -std::numeric_limits<double>::infinity();
    EXPECT_EQ(kernel(scan, got), want_k);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(best))
        << got << " vs " << best;
  }
  return want_k;
}

METIS_AT_EVERY_LEVEL(SplitKernel);

TEST_P(SplitKernel, SideWhoseWeightCancelsCountsAsPure) {
  // Two heavy rows (one per class) and two light ones at 0, two light
  // ones at 1. The light rows vanish from the node's sums (W = 2e17), so
  // the only cut's right side is left with W = -2 and class weights -1,
  // -1. The plain scan counts it as pure (mass 0, decrease 0); the
  // formula alone would give it mass 2.
  std::vector<double> x, w;
  std::vector<std::uint8_t> y;
  for (int i = 0; i < 6; ++i) {
    x.push_back(i < 4 ? 0.0 : 1.0);
    y.push_back(static_cast<std::uint8_t>(i % 2));
    w.push_back(i < 2 ? 1e17 : 1.0);
  }
  std::vector<std::uint32_t> sorted(x.size());
  std::iota(sorted.begin(), sorted.end(), std::uint32_t{0});
  double best = 0.0;
  EXPECT_EQ(expect_kernels_match_plain_scan(x, y, w, sorted, 2, 1, best), 3u);
  EXPECT_EQ(best, 0.0);
}

TEST_P(SplitKernel, MatchesPlainScanOnRandomNodes) {
  metis::Rng rng(77);
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = 2 + rng.uniform_int(300);
    const std::size_t classes = 1 + rng.uniform_int(detail::kKernelClasses);
    std::size_t min_leaf = 1 + rng.uniform_int(5);
    while (n < 2 * min_leaf) --min_leaf;
    const std::size_t levels = 2 + rng.uniform_int(n);
    const bool absorbed = trial % 5 == 0;  // weights 2^53 apart
    std::vector<double> x(n), w(n);
    std::vector<std::uint8_t> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Level 0 is -1.0 or -0.0, level 1 is 0.0: signed zeros tie.
      const double level = static_cast<double>(rng.uniform_int(levels));
      x[i] = level == 0.0 && rng.uniform_int(2) == 0 ? -0.0 : level - 1.0;
      y[i] = static_cast<std::uint8_t>(rng.uniform_int(classes));
      w[i] = absorbed ? (rng.uniform_int(3) == 0 ? 1.0 : 1e17)
                      : std::exp(rng.uniform(std::log(1e-3), std::log(130.0)));
    }
    std::vector<std::uint32_t> sorted(n);
    std::iota(sorted.begin(), sorted.end(), std::uint32_t{0});
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return x[a] < x[b];
                     });
    double best = 0.0;
    (void)expect_kernels_match_plain_scan(x, y, w, sorted, classes, min_leaf,
                                          best);
    if (HasFailure()) return;
  }
}

TEST(Cart, RejectsNaNFeatures) {
  Dataset d;
  d.add({0.0}, 0.0);
  d.add({std::nan("")}, 1.0);
  EXPECT_THROW((void)DecisionTree::fit(d, FitConfig{}), std::logic_error);
}

// The midpoint between a finite value and +-inf is +-inf or NaN, so a
// cut there would send every row to one side. Validation rejects such a
// feature before the fit and names the cause.
TEST(Cart, RejectsInfiniteFeatures) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {inf, -inf}) {
    Dataset d;
    d.add({0.0, 1.0}, 0.0);
    d.add({1.0, bad}, 1.0);
    d.add({2.0, 3.0}, 0.0);
    EXPECT_THROW(d.validate(), std::logic_error) << bad;
    try {
      (void)DecisionTree::fit(d, FitConfig{});
      ADD_FAILURE() << "fit accepted feature " << bad;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
          << e.what();
    }
  }
}

// Reference CCP over the public definitions: every step walks the whole
// tree, evaluates weakest_link_value on each internal node in preorder,
// and collapses the first strict minimum.
TreeNode* reference_weakest(TreeNode* node, TreeNode* best, double& best_g) {
  if (node->is_leaf()) return best;
  const double g = weakest_link_value(*node);
  if (g < best_g) {
    best_g = g;
    best = node;
  }
  best = reference_weakest(node->left.get(), best, best_g);
  return reference_weakest(node->right.get(), best, best_g);
}

void reference_collapse(TreeNode& node) {
  node.feature = -1;
  node.left.reset();
  node.right.reset();
}

std::size_t reference_prune_to_leaf_count(DecisionTree& t, std::size_t budget) {
  std::size_t steps = 0;
  while (t.leaf_count() > budget) {
    double g = std::numeric_limits<double>::infinity();
    reference_collapse(*reference_weakest(t.mutable_root(), nullptr, g));
    ++steps;
  }
  return steps;
}

std::size_t reference_prune_with_alpha(DecisionTree& t, double alpha) {
  std::size_t steps = 0;
  for (;;) {
    double g = std::numeric_limits<double>::infinity();
    TreeNode* weakest = reference_weakest(t.mutable_root(), nullptr, g);
    if (weakest == nullptr || g > alpha) return steps;
    reference_collapse(*weakest);
    ++steps;
  }
}

std::vector<std::pair<std::string, DecisionTree>> prune_cases() {
  FitConfig leaf5;
  leaf5.min_samples_leaf = 5;
  FitConfig reg;
  reg.task = Task::kRegression;
  std::vector<std::pair<std::string, DecisionTree>> trees;
  trees.emplace_back("abr_shaped",
                     DecisionTree::fit(abr_shaped_dataset(800, 47), {}));
  trees.emplace_back("abr_shaped_leaf5",
                     DecisionTree::fit(abr_shaped_dataset(800, 48), leaf5));
  trees.emplace_back(
      "regression",
      DecisionTree::fit(regression_dataset(500, 49, true, 0.05), reg));
  return trees;
}

TEST(PruneOracle, LeafBudgetsByteIdenticalToReferenceLoop) {
  for (const auto& [name, fitted] : prune_cases()) {
    ASSERT_GT(fitted.leaf_count(), 60u) << name;
    for (std::size_t budget : {1, 2, 5, 28, 35, 43, 1000}) {
      DecisionTree got = fitted.clone();
      DecisionTree want = fitted.clone();
      const std::size_t steps = prune_to_leaf_count(got, budget);
      EXPECT_EQ(steps, reference_prune_to_leaf_count(want, budget))
          << name << " budget " << budget;
      EXPECT_EQ(serialize(got), serialize(want))
          << name << " budget " << budget;
    }
  }
}

TEST(PruneOracle, AlphasByteIdenticalToReferenceLoop) {
  for (const auto& [name, fitted] : prune_cases()) {
    for (double alpha : {0.0, 1e-3, 0.05, 0.5, 2.0, 20.0, 1e9}) {
      DecisionTree got = fitted.clone();
      DecisionTree want = fitted.clone();
      const std::size_t steps = prune_with_alpha(got, alpha);
      EXPECT_EQ(steps, reference_prune_with_alpha(want, alpha))
          << name << " alpha " << alpha;
      EXPECT_EQ(serialize(got), serialize(want)) << name << " alpha " << alpha;
    }
  }
}

// §3.2 / Appendix F: CCP trades leaves for training error along one nested
// sequence, so a larger leaf budget never fits the training data worse.
TEST(Prune, CcpTrainingErrorNonIncreasingInLeafBudget) {
  const Dataset d = abr_shaped_dataset(800, 47);
  const DecisionTree fitted = DecisionTree::fit(d, FitConfig{});
  const double total = fitted.root()->weight_sum;
  double prev_r = std::numeric_limits<double>::infinity();
  double prev_err = 1.0;
  for (std::size_t budget = 1; budget <= fitted.leaf_count() + 1; ++budget) {
    DecisionTree t = fitted.clone();
    prune_to_leaf_count(t, budget);
    EXPECT_LE(t.leaf_count(), budget);
    const double r = subtree_error(*t.root());
    const double err = 1.0 - t.accuracy(d);
    EXPECT_LE(r, prev_r + 1e-9 * total) << "budget " << budget;
    EXPECT_LE(err, prev_err + 1e-12) << "budget " << budget;
    prev_r = r;
    prev_err = err;
  }
  // Unpruned, the weighted training error is R(T), the leaves' node_error.
  EXPECT_NEAR(prev_err * total, subtree_error(*fitted.root()), 1e-6 * total);
}

// ---- crash-safe file persistence --------------------------------------------

std::string unique_tree_path() {
  static std::atomic<int> counter{0};
  return "/tmp/metis_tree_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".tree";
}

TEST(TreeIO, SaveLoadRoundTripsThroughDisk) {
  metis::Rng rng(21);
  const DecisionTree t =
      DecisionTree::fit(threshold_dataset(300, rng), FitConfig{});
  const std::string path = unique_tree_path();
  save(t, path);
  const DecisionTree back = load(path);
  EXPECT_EQ(serialize(back), serialize(t));
  // The same text without its CRC frame (a bare metis-tree-v1 file) is
  // not an artifact load() accepts.
  ASSERT_TRUE(metis::util::write_file_atomic(path, serialize(t)));
  EXPECT_THROW((void)load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TreeIO, KilledMidWriteArtifactIsNeverLoadable) {
  metis::Rng rng(22);
  const DecisionTree t =
      DecisionTree::fit(threshold_dataset(300, rng), FitConfig{});
  const std::string path = unique_tree_path();
  save(t, path);
  const std::string original = serialize(t);

  // Simulate a kill partway through a re-save at every prefix length of
  // the serialized form: whatever the crash point, load() must return the
  // previous complete tree — a torn artifact is never observable.
  const std::string updated = serialize(t) + "\n";
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{16},
                          original.size() / 2, original.size() - 1}) {
    metis::util::AtomicWriteOptions crash;
    crash.fail_after_bytes = cut;
    EXPECT_FALSE(metis::util::write_file_atomic(path, updated, crash));
    EXPECT_EQ(serialize(load(path)), original) << "cut at " << cut;
  }

  // A crash before the very first save leaves nothing to load — missing,
  // not torn.
  const std::string fresh = unique_tree_path();
  metis::util::AtomicWriteOptions crash;
  crash.fail_after_bytes = 8;
  EXPECT_FALSE(metis::util::write_file_atomic(fresh, original, crash));
  EXPECT_THROW((void)load(fresh), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace metis::tree



