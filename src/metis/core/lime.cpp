#include "metis/core/lime.h"

#include <algorithm>
#include <cmath>

#include "metis/nn/arena.h"
#include "metis/util/check.h"

namespace metis::core {

LimeSurrogate LimeSurrogate::fit(const std::vector<std::vector<double>>& x,
                                 const nn::Tensor& targets,
                                 const SurrogateConfig& cfg) {
  MET_CHECK(!x.empty());
  MET_CHECK(targets.rows() == x.size());
  metis::Rng rng(cfg.seed);
  // The per-cluster ridge fits allocate the same normal-equation tensor
  // shapes over and over; recycle them. The coefficient tensors stored in
  // s.coef_ outlive the scope, which the arena supports by design.
  nn::arena::Scope arena;

  LimeSurrogate s;
  s.clusters_ = kmeans(x, cfg.clusters, rng);
  const std::size_t k = s.clusters_.centroids.size();

  // Average squared distance sets the proximity kernel bandwidth.
  double mean_d2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double d2 = 0.0;
    const auto& c = s.clusters_.centroids[s.clusters_.assignment[i]];
    for (std::size_t j = 0; j < x[i].size(); ++j) {
      const double d = x[i][j] - c[j];
      d2 += d * d;
    }
    mean_d2 += d2;
  }
  mean_d2 /= static_cast<double>(x.size());
  const double bandwidth = std::max(mean_d2, 1e-6);

  // Each cluster's fit depends only on the (already fixed) clustering.
  s.coef_.assign(k, nn::Tensor());
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<std::vector<double>> cx;
    std::vector<double> weights;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (s.clusters_.assignment[i] != c) continue;
      cx.push_back(x[i]);
      rows.push_back(i);
      double d2 = 0.0;
      for (std::size_t j = 0; j < x[i].size(); ++j) {
        const double d = x[i][j] - s.clusters_.centroids[c][j];
        d2 += d * d;
      }
      weights.push_back(std::exp(-d2 / bandwidth));  // LIME's πₓ kernel
    }
    if (cx.empty()) {
      // Empty cluster: a zero model that defers to the bias.
      s.coef_[c] = nn::Tensor(x.front().size() + 1, targets.cols(), 0.0);
      continue;
    }
    nn::Tensor ct(cx.size(), targets.cols());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t m = 0; m < targets.cols(); ++m) {
        ct(i, m) = targets(rows[i], m);
      }
    }
    s.coef_[c] = ridge_fit(cx, ct, cfg.ridge, weights);
  }
  return s;
}

std::vector<double> LimeSurrogate::predict_row(
    std::span<const double> x) const {
  const std::size_t c = nearest_centroid(clusters_.centroids, x);
  return ridge_predict(coef_[c], x);
}

std::size_t LimeSurrogate::predict_class(std::span<const double> x) const {
  const auto out = predict_row(x);
  MET_CHECK(!out.empty());
  return static_cast<std::size_t>(
      std::max_element(out.begin(), out.end()) - out.begin());
}

nn::Tensor LimeSurrogate::predict_batch(
    const std::vector<std::vector<double>>& x) const {
  MET_CHECK(!x.empty());
  const std::size_t m = coef_.front().cols();
  nn::Tensor out(x.size(), m);
  // One design-matrix GEMM per touched cluster, rows scattered back —
  // each output row is the same k-ascending chain ridge_predict
  // produces, so the batch is bitwise identical to per-row predicts.
  for_each_centroid_group(
      clusters_.centroids, x,
      [&](std::size_t c, const std::vector<std::size_t>& rows,
          const nn::Tensor& design) {
        const nn::Tensor pred = ridge_predict_batch(coef_[c], design);
        for (std::size_t g = 0; g < rows.size(); ++g) {
          for (std::size_t j = 0; j < m; ++j) out(rows[g], j) = pred(g, j);
        }
      });
  return out;
}

std::vector<std::size_t> LimeSurrogate::predict_classes(
    const std::vector<std::vector<double>>& x) const {
  return argmax_rows(predict_batch(x));
}

}  // namespace metis::core
