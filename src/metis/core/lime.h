// LIME baseline (Ribeiro et al., KDD'16), under the Appendix-E protocol:
// inputs are k-means clustered and one local linear surrogate is fitted
// per cluster, weighted by proximity to the cluster centroid.
#pragma once

#include <cstddef>
#include <vector>

#include "metis/core/kmeans.h"
#include "metis/core/linreg.h"
#include "metis/nn/tensor.h"

namespace metis::core {

struct SurrogateConfig {
  std::size_t clusters = 10;
  double ridge = 1e-3;
  std::uint64_t seed = 7;
};

class LimeSurrogate {
 public:
  // x: n inputs; targets: n x m teacher outputs (action probabilities for
  // classification teachers, raw values for regression teachers).
  [[nodiscard]] static LimeSurrogate fit(
      const std::vector<std::vector<double>>& x, const nn::Tensor& targets,
      const SurrogateConfig& cfg);

  // m surrogate outputs for one input (linear model of its cluster).
  [[nodiscard]] std::vector<double> predict_row(
      std::span<const double> x) const;
  // argmax over outputs — the predicted class for classification teachers.
  [[nodiscard]] std::size_t predict_class(std::span<const double> x) const;

  // Matrix-level batch inference: one design-matrix GEMM per touched
  // cluster instead of n per-row predicts. Row i is bitwise identical to
  // predict_row(x[i]).
  [[nodiscard]] nn::Tensor predict_batch(
      const std::vector<std::vector<double>>& x) const;
  [[nodiscard]] std::vector<std::size_t> predict_classes(
      const std::vector<std::vector<double>>& x) const;

  [[nodiscard]] std::size_t cluster_count() const { return coef_.size(); }

 private:
  KmeansResult clusters_;
  std::vector<nn::Tensor> coef_;  // one (d+1) x m matrix per cluster
};

}  // namespace metis::core
