// Weighted supervised dataset for decision-tree training.
//
// Produced by the Metis trace collector (§3.2 step 1) and reweighted /
// resampled by the advantage resampler (§3.2 step 2) before CART fitting.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace metis::tree {

struct Dataset {
  // Optional human-readable feature names (used by tree printing, Fig. 7).
  std::vector<std::string> feature_names;
  // Row-major feature matrix: x[i] has feature_count() entries.
  std::vector<std::vector<double>> x;
  // Labels: class index (as double) for classification, real value for
  // regression.
  std::vector<double> y;
  // Per-sample weights; empty means uniform. Non-empty weights must be
  // positive, finite and match x.size().
  std::vector<double> weight;

  [[nodiscard]] std::size_t size() const { return x.size(); }
  [[nodiscard]] std::size_t feature_count() const {
    return x.empty() ? feature_names.size() : x.front().size();
  }
  [[nodiscard]] double weight_of(std::size_t i) const {
    return weight.empty() ? 1.0 : weight[i];
  }

  void add(std::vector<double> features, double label, double w = 1.0);

  // Throws MET_CHECK-style logic errors when rows are ragged, labels are
  // missing, a feature is NaN or infinite, or a weight is not positive
  // and finite.
  void validate() const;

  // Number of distinct class labels (assumes labels are 0..k-1). Only
  // meaningful for classification data.
  [[nodiscard]] std::size_t class_count() const;

  // Per-class weighted frequency (normalized). Useful for the §6.3
  // imbalance diagnosis.
  [[nodiscard]] std::vector<double> class_frequencies() const;

  // Returns a dataset where class `cls` is oversampled (rows duplicated)
  // until its frequency is at least `target_freq` — the §6.3 debugging fix
  // (Metis+Pensieve-O).
  // copy_weight < 0 keeps each duplicated row's own weight; otherwise the
  // duplicates are added with the given weight (e.g. the dataset mean, so
  // debugging duplicates don't multiply a rare state's advantage mass).
  [[nodiscard]] Dataset oversample_class(std::size_t cls, double target_freq,
                                         double copy_weight = -1.0) const;
};

}  // namespace metis::tree
