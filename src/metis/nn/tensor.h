// Dense row-major matrix of doubles — the single numeric container used by
// the autodiff tape, the RL teachers, and the hypergraph mask optimizer.
//
// A Tensor is always 2-D (rows x cols); vectors are represented as 1 x N or
// N x 1. This keeps shapes explicit, which matters for the mask matrices
// W in the hypergraph interpreter (|E| x |V|).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "metis/nn/arena.h"

namespace metis::nn {

class Tensor {
 public:
  // Backing storage. The allocator routes through the per-thread tensor
  // arena (nn/arena.h): inside an arena::Scope, freed buffers recycle
  // instead of round-tripping through malloc; outside one it degenerates
  // to plain new/delete.
  using Buffer = std::vector<double, arena::Allocator<double>>;

  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, double fill = 0.0);
  Tensor(std::size_t rows, std::size_t cols, Buffer data);
  // Compatibility overload for plain vectors; copies into the pooled
  // buffer, so hot paths should build a Buffer directly.
  Tensor(std::size_t rows, std::size_t cols, const std::vector<double>& data);

  // 1 x N row vector from values.
  static Tensor row(std::span<const double> values);
  static Tensor row(std::initializer_list<double> values);
  // N x 1 column vector from values.
  static Tensor column(std::span<const double> values);
  // N x d matrix stacking equal-length rows (batched inference inputs).
  static Tensor from_rows(const std::vector<std::vector<double>>& rows);
  // Identity-free convenience constructors.
  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor ones(std::size_t rows, std::size_t cols);
  // One-hot 1 x n row.
  static Tensor one_hot(std::size_t index, std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }

  // Element-wise in-place helpers (shapes must match exactly).
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(double s);
  void fill(double v);

  [[nodiscard]] Tensor transposed() const;

  // Matrix product: (r x k) * (k x c) -> (r x c). Runs nn/gemm.h's
  // kernels for isa::active(); every level produces bitwise-identical
  // results.
  [[nodiscard]] static Tensor matmul(const Tensor& a, const Tensor& b);

  // Frobenius-norm squared sum of all entries.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double max_abs() const;

  [[nodiscard]] bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Buffer data_;
};

}  // namespace metis::nn
