// Constant sparse matrices in compressed-sparse-row (CSR) form.
//
// The §4.2 search scores a hypergraph's *connections*, not the cells of
// its |E| x |V| incidence box: on the routing instance 441 of 7,644 cells
// are connections (5.8% dense). A CsrMatrix is built once from a dense
// matrix and backs two things:
//
//  - support-indexed kernels: the gating and regularizer ops in
//    nn/autodiff.h walk only the stored entries, through offsets();
//  - a constant-sparse x dense product (matmul / matmul_transA_acc below,
//    and the autodiff matmul(const CsrMatrix&, const Var&) on top), e.g.
//    RouteNet*'s candidate-path incidence times the per-link delays.
//
// Entry order is row-major: rows ascending, and within a row, columns
// ascending. The kernels follow the nn/gemm.h contract — every output
// element is the k-ascending sum of products into one accumulator,
// finished by at most one extra add — so for finite operands they are
// bitwise identical to the dense kernels on the matrix the CsrMatrix was
// built from (skipping a zero entry skips an exact +0 or -0 term, which
// the reference GEMM's zero-skip already does). tests/nn_test.cpp pins this.
//
// Immutable after construction: any number of threads and tapes may share
// one instance read-only.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "metis/nn/tensor.h"

namespace metis::nn {

class CsrMatrix {
 public:
  // Keeps every entry of `dense` that is != 0.0, in row-major order.
  explicit CsrMatrix(const Tensor& dense);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  // rows() + 1 entries; row r's entries are [row_ptr[r], row_ptr[r + 1]).
  [[nodiscard]] std::span<const std::size_t> row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] std::span<const std::size_t> col_index() const {
    return col_index_;
  }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  // Entry j's flat row-major index into the dense matrix:
  // row * cols() + col_index()[j]. Strictly ascending.
  [[nodiscard]] std::span<const std::size_t> offsets() const {
    return offsets_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_ = {0};
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;
  std::vector<std::size_t> offsets_;
};

namespace sparse {

// (m x k CSR) * (k x n) -> (m x n). Bitwise identical to gemm::matmul on
// a's dense source for finite b.
[[nodiscard]] Tensor matmul(const CsrMatrix& a, const Tensor& b);

// acc += a^T * b  (a: k x m CSR, b: k x n, acc: m x n). The products are
// summed k-ascending into an arena-backed scratch tensor, then added to
// acc once per element — bitwise identical to gemm::matmul_transA_acc on
// a's dense source for finite b.
void matmul_transA_acc(const CsrMatrix& a, const Tensor& b, Tensor& acc);

}  // namespace sparse
}  // namespace metis::nn
