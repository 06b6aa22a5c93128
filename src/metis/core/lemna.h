// LEMNA baseline (Guo et al., CCS'18), under the Appendix-E protocol:
// per k-means cluster, a mixture of linear regressions fitted by EM
// captures locally non-linear decision boundaries (LEMNA's core idea,
// minus the fused-lasso term which targets sequence data).
#pragma once

#include <cstddef>
#include <vector>

#include "metis/core/kmeans.h"
#include "metis/core/linreg.h"
#include "metis/nn/tensor.h"

namespace metis::core {

struct LemnaConfig {
  std::size_t clusters = 10;
  std::size_t components = 3;   // mixture size per cluster
  std::size_t em_iters = 25;
  double ridge = 1e-3;
  // Cluster c's EM responsibilities are seeded from
  // Rng::derive(seed, c).
  std::uint64_t seed = 11;
};

class LemnaSurrogate {
 public:
  [[nodiscard]] static LemnaSurrogate fit(
      const std::vector<std::vector<double>>& x, const nn::Tensor& targets,
      const LemnaConfig& cfg);

  // Mixture-weighted m-dimensional output for one input.
  [[nodiscard]] std::vector<double> predict_row(
      std::span<const double> x) const;
  [[nodiscard]] std::size_t predict_class(std::span<const double> x) const;

  // Matrix-level batch inference (one GEMM per touched mixture component
  // instead of per-row predicts); row i bitwise matches predict_row(x[i]).
  [[nodiscard]] nn::Tensor predict_batch(
      const std::vector<std::vector<double>>& x) const;
  [[nodiscard]] std::vector<std::size_t> predict_classes(
      const std::vector<std::vector<double>>& x) const;

 private:
  struct Mixture {
    std::vector<nn::Tensor> coef;   // per component, (d+1) x m
    std::vector<double> weight;     // mixing proportions π_l
  };
  KmeansResult clusters_;
  std::vector<Mixture> mixtures_;  // one per cluster
};

}  // namespace metis::core
