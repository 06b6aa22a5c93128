#include "metis/core/lemna.h"

#include <algorithm>
#include <cmath>

#include "metis/nn/arena.h"
#include "metis/util/check.h"

namespace metis::core {
namespace {

// Squared residual of one prediction row against its target row. The
// predictions come from one matrix-level ridge_predict_batch per
// component — the EM loop's former per-row ridge_predict calls collapsed
// into GEMMs — and each row of that batch is bitwise identical to the
// per-row predict it replaces.
double row_sq_residual(const nn::Tensor& pred, const nn::Tensor& targets,
                       std::size_t row) {
  double s = 0.0;
  for (std::size_t m = 0; m < targets.cols(); ++m) {
    const double d = pred(row, m) - targets(row, m);
    s += d * d;
  }
  return s;
}

}  // namespace

LemnaSurrogate LemnaSurrogate::fit(const std::vector<std::vector<double>>& x,
                                   const nn::Tensor& targets,
                                   const LemnaConfig& cfg) {
  MET_CHECK(!x.empty());
  MET_CHECK(targets.rows() == x.size());
  MET_CHECK(cfg.components >= 1);
  metis::Rng rng(cfg.seed);
  // EM re-fits one weighted ridge per component per iteration — identical
  // tensor shapes every time; park them in the arena between fits.
  nn::arena::Scope arena;

  LemnaSurrogate s;
  s.clusters_ = kmeans(x, cfg.clusters, rng);
  const std::size_t k = s.clusters_.centroids.size();
  const std::size_t dim = x.front().size();
  const std::size_t m = targets.cols();

  // The per-cluster EM fits are independent given the clustering, and
  // each cluster draws its responsibility initialization from
  // Rng::derive(seed, cluster), a pure function of (seed, cluster).
  s.mixtures_.assign(k, Mixture{});
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<std::vector<double>> cx;
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (s.clusters_.assignment[i] == c) {
        cx.push_back(x[i]);
        rows.push_back(i);
      }
    }
    Mixture mix;
    if (cx.empty()) {
      mix.coef.emplace_back(dim + 1, m, 0.0);
      mix.weight.push_back(1.0);
      s.mixtures_[c] = std::move(mix);
      continue;
    }
    nn::Tensor ct(cx.size(), m);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < m; ++j) ct(i, j) = targets(rows[i], j);
    }
    const nn::Tensor design = ridge_design_matrix(cx);

    const std::size_t n_comp = std::min(cfg.components, cx.size());
    // Init: random responsibilities from the cluster's derived stream.
    metis::Rng cluster_rng = metis::Rng::derive(cfg.seed, c);
    nn::Tensor resp(cx.size(), n_comp);
    for (std::size_t i = 0; i < cx.size(); ++i) {
      double total = 0.0;
      for (std::size_t l = 0; l < n_comp; ++l) {
        resp(i, l) = cluster_rng.uniform(0.1, 1.0);
        total += resp(i, l);
      }
      for (std::size_t l = 0; l < n_comp; ++l) resp(i, l) /= total;
    }

    mix.coef.assign(n_comp, nn::Tensor(dim + 1, m, 0.0));
    mix.weight.assign(n_comp, 1.0 / static_cast<double>(n_comp));
    std::vector<double> sigma2(n_comp, 1.0);
    std::vector<nn::Tensor> preds(n_comp);  // per-component batch forwards

    for (std::size_t iter = 0; iter < cfg.em_iters; ++iter) {
      // M-step: weighted ridge per component + mixing weights + variance.
      // One batch forward per component covers both this step's variance
      // and the E-step below.
      for (std::size_t l = 0; l < n_comp; ++l) {
        std::vector<double> w(cx.size());
        double wsum = 0.0;
        for (std::size_t i = 0; i < cx.size(); ++i) {
          w[i] = resp(i, l) + 1e-8;
          wsum += w[i];
        }
        mix.coef[l] = ridge_fit(cx, ct, cfg.ridge, w);
        mix.weight[l] = wsum / static_cast<double>(cx.size());
        preds[l] = ridge_predict_batch(mix.coef[l], design);
        double se = 0.0;
        for (std::size_t i = 0; i < cx.size(); ++i) {
          se += w[i] * row_sq_residual(preds[l], ct, i);
        }
        sigma2[l] = std::max(se / (wsum * static_cast<double>(m)), 1e-6);
      }
      // E-step: responsibilities ∝ π_l N(y | W_l x, σ_l² I).
      for (std::size_t i = 0; i < cx.size(); ++i) {
        std::vector<double> logp(n_comp);
        double mx = -1e300;
        for (std::size_t l = 0; l < n_comp; ++l) {
          const double r2 = row_sq_residual(preds[l], ct, i);
          logp[l] = std::log(mix.weight[l] + 1e-12) -
                    0.5 * static_cast<double>(m) * std::log(sigma2[l]) -
                    0.5 * r2 / sigma2[l];
          mx = std::max(mx, logp[l]);
        }
        double denom = 0.0;
        for (std::size_t l = 0; l < n_comp; ++l) {
          logp[l] = std::exp(logp[l] - mx);
          denom += logp[l];
        }
        for (std::size_t l = 0; l < n_comp; ++l) resp(i, l) = logp[l] / denom;
      }
    }
    s.mixtures_[c] = std::move(mix);
  }
  return s;
}

std::vector<double> LemnaSurrogate::predict_row(
    std::span<const double> x) const {
  const std::size_t c = nearest_centroid(clusters_.centroids, x);
  const Mixture& mix = mixtures_[c];
  std::vector<double> out;
  for (std::size_t l = 0; l < mix.coef.size(); ++l) {
    const auto pred = ridge_predict(mix.coef[l], x);
    if (out.empty()) out.assign(pred.size(), 0.0);
    for (std::size_t j = 0; j < pred.size(); ++j) {
      out[j] += mix.weight[l] * pred[j];
    }
  }
  return out;
}

std::size_t LemnaSurrogate::predict_class(std::span<const double> x) const {
  const auto out = predict_row(x);
  MET_CHECK(!out.empty());
  return static_cast<std::size_t>(
      std::max_element(out.begin(), out.end()) - out.begin());
}

nn::Tensor LemnaSurrogate::predict_batch(
    const std::vector<std::vector<double>>& x) const {
  MET_CHECK(!x.empty());
  const std::size_t m = mixtures_.front().coef.front().cols();
  nn::Tensor out(x.size(), m, 0.0);
  // One weighted batch forward per mixture component of each touched
  // cluster — the same component-ascending chain predict_row builds, so
  // rows are bitwise identical to it.
  for_each_centroid_group(
      clusters_.centroids, x,
      [&](std::size_t c, const std::vector<std::size_t>& rows,
          const nn::Tensor& design) {
        const Mixture& mix = mixtures_[c];
        for (std::size_t l = 0; l < mix.coef.size(); ++l) {
          const nn::Tensor pred = ridge_predict_batch(mix.coef[l], design);
          for (std::size_t g = 0; g < rows.size(); ++g) {
            for (std::size_t j = 0; j < m; ++j) {
              out(rows[g], j) += mix.weight[l] * pred(g, j);
            }
          }
        }
      });
  return out;
}

std::vector<std::size_t> LemnaSurrogate::predict_classes(
    const std::vector<std::vector<double>>& x) const {
  return argmax_rows(predict_batch(x));
}

}  // namespace metis::core
