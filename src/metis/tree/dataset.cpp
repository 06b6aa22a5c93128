#include "metis/tree/dataset.h"

#include <algorithm>
#include <cmath>

#include "metis/util/check.h"

namespace metis::tree {

void Dataset::add(std::vector<double> features, double label, double w) {
  MET_CHECK_MSG(w > 0.0 && std::isfinite(w),
                "weights must be positive and finite");
  if (!x.empty()) {
    MET_CHECK_MSG(features.size() == x.front().size(),
                  "all rows must have the same number of features");
  }
  x.push_back(std::move(features));
  y.push_back(label);
  if (!weight.empty() || w != 1.0) {
    if (weight.empty()) weight.assign(x.size() - 1, 1.0);
    weight.push_back(w);
  }
}

void Dataset::validate() const {
  MET_CHECK_MSG(x.size() == y.size(), "labels must match rows");
  MET_CHECK_MSG(weight.empty() || weight.size() == x.size(),
                "weights must be empty or match rows");
  for (const auto& row : x) {
    MET_CHECK_MSG(row.size() == x.front().size(), "ragged feature rows");
    for (double v : row) {
      MET_CHECK_MSG(std::isfinite(v), "features must be finite (no NaN/inf)");
    }
  }
  for (double w : weight) {
    MET_CHECK_MSG(w > 0.0 && std::isfinite(w),
                  "weights must be positive and finite");
  }
  if (!feature_names.empty() && !x.empty()) {
    MET_CHECK_MSG(feature_names.size() == x.front().size(),
                  "feature_names must match feature count");
  }
}

std::size_t Dataset::class_count() const {
  double mx = -1.0;
  for (double v : y) {
    MET_CHECK_MSG(v >= 0.0 && v == std::floor(v),
                  "class labels must be non-negative integers");
    mx = std::max(mx, v);
  }
  return y.empty() ? 0 : static_cast<std::size_t>(mx) + 1;
}

std::vector<double> Dataset::class_frequencies() const {
  const std::size_t k = class_count();
  std::vector<double> freq(k, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double w = weight_of(i);
    freq[static_cast<std::size_t>(y[i])] += w;
    total += w;
  }
  if (total > 0.0) {
    for (double& f : freq) f /= total;
  }
  return freq;
}

Dataset Dataset::oversample_class(std::size_t cls, double target_freq,
                                  double copy_weight) const {
  MET_CHECK(target_freq > 0.0 && target_freq < 1.0);
  validate();
  auto freq = class_frequencies();
  MET_CHECK(cls < freq.size());
  Dataset out = *this;
  if (freq[cls] >= target_freq) return out;
  // With class weight fraction p and n extra copies of the class rows, the
  // fraction becomes (1+n)p / (1 + np); solve for the smallest integer n
  // reaching target_freq.
  const double p = freq[cls];
  std::size_t copies = 0;
  if (p > 0.0) {
    const double t = target_freq;
    copies = static_cast<std::size_t>(
        std::ceil((t - p) / std::max(p * (1.0 - t), 1e-12)));
  }
  MET_CHECK_MSG(p > 0.0, "cannot oversample a class with no samples");
  for (std::size_t c = 0; c < copies; ++c) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (static_cast<std::size_t>(y[i]) == cls) {
        out.add(x[i], y[i], copy_weight < 0.0 ? weight_of(i) : copy_weight);
      }
    }
  }
  return out;
}

}  // namespace metis::tree
