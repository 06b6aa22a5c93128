// Weighted ridge regression — the linear building block shared by the
// LIME and LEMNA interpretation baselines (Appendix E).
#pragma once

#include <span>
#include <vector>

#include "metis/nn/tensor.h"

namespace metis::core {

// Solves min Σ_i w_i ||[x_i 1]·B − y_i||² + l2·||B||² for the coefficient
// matrix B ((d+1) x m, last row = bias). `targets` is n x m. Weights may be
// empty (uniform) and must otherwise be non-negative with a positive sum.
[[nodiscard]] nn::Tensor ridge_fit(const std::vector<std::vector<double>>& x,
                                   const nn::Tensor& targets, double l2,
                                   std::span<const double> weights = {});

// Applies a fitted coefficient matrix to one input row: returns m outputs.
// Accumulates features in ascending order with the bias last — the exact
// per-element chain the GEMM kernels use — so a row of
// ridge_predict_batch is bitwise identical to this call.
[[nodiscard]] std::vector<double> ridge_predict(const nn::Tensor& coef,
                                                std::span<const double> x);

// Design matrix X~ = [x | 1] (n x (d+1)) for the batch path below.
[[nodiscard]] nn::Tensor ridge_design_matrix(
    const std::vector<std::vector<double>>& x);

// Matrix-level batch prediction: X~ · B -> n x m, one GEMM instead of n
// ridge_predict calls. Row i is bitwise identical to
// ridge_predict(coef, x[i]) (same k-ascending accumulation per output
// element; the GEMM kernels guarantee no FMA contraction).
[[nodiscard]] nn::Tensor ridge_predict_batch(const nn::Tensor& coef,
                                             const nn::Tensor& design);

// Per-row argmax (first maximum wins, like std::max_element) — the
// predicted class per row of a batch prediction.
[[nodiscard]] std::vector<std::size_t> argmax_rows(const nn::Tensor& out);

// Solves the symmetric positive-definite system A·b = y in place
// (Gaussian elimination with partial pivoting). Exposed for testing.
[[nodiscard]] std::vector<double> solve_linear(nn::Tensor a,
                                               std::vector<double> y);

}  // namespace metis::core
