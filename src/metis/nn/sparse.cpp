#include "metis/nn/sparse.h"

#include "metis/util/check.h"

namespace metis::nn {

CsrMatrix::CsrMatrix(const Tensor& dense)
    : rows_(dense.rows()), cols_(dense.cols()) {
  row_ptr_.reserve(rows_ + 1);
  const auto d = dense.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t at = r * cols_ + c;
      if (d[at] == 0.0) continue;
      col_index_.push_back(c);
      values_.push_back(d[at]);
      offsets_.push_back(at);
    }
    row_ptr_.push_back(values_.size());
  }
}

namespace sparse {

// metis-lint: begin-deterministic — the sparse kernels must stay bitwise
// identical to the dense GEMM kernels (same products, same k-ascending
// order), so they may not consult clocks, addresses, or run-varying input.
// metis-lint: begin-hot-path
Tensor matmul(const CsrMatrix& a, const Tensor& b) {
  MET_CHECK_MSG(a.cols() == b.rows(), "sparse::matmul inner dimensions");
  const std::size_t n = b.cols();
  Tensor out(a.rows(), n, 0.0);
  const auto row_ptr = a.row_ptr();
  const auto col = a.col_index();
  const auto val = a.values();
  const double* bd = b.data().data();
  double* od = out.data().data();
  // Row r's stored entries are column-ascending, so each out(r, c) is the
  // k-ascending chain of naive_matmul minus its skipped zero terms.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* out_row = od + r * n;
    for (std::size_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
      const double av = val[j];
      const double* b_row = bd + col[j] * n;
      for (std::size_t c = 0; c < n; ++c) out_row[c] += av * b_row[c];
    }
  }
  return out;
}

void matmul_transA_acc(const CsrMatrix& a, const Tensor& b, Tensor& acc) {
  MET_CHECK_MSG(a.rows() == b.rows(),
                "sparse::matmul_transA_acc inner dimensions");
  MET_CHECK_MSG(acc.rows() == a.cols() && acc.cols() == b.cols(),
                "sparse::matmul_transA_acc: acc shape mismatch");
  if (acc.empty()) return;
  const std::size_t n = b.cols();
  // The scratch is a Tensor, so inside an arena::Scope it recycles like
  // every other tape buffer. Walking a's rows (the k index) ascending
  // keeps each scratch element a k-ascending chain; the one += below is
  // the contract's single extra add.
  Tensor tmp(acc.rows(), n, 0.0);
  const auto row_ptr = a.row_ptr();
  const auto col = a.col_index();
  const auto val = a.values();
  const double* bd = b.data().data();
  double* td = tmp.data().data();
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* b_row = bd + k * n;
    for (std::size_t j = row_ptr[k]; j < row_ptr[k + 1]; ++j) {
      const double av = val[j];
      double* t_row = td + col[j] * n;
      for (std::size_t c = 0; c < n; ++c) t_row[c] += av * b_row[c];
    }
  }
  acc += tmp;
}
// metis-lint: end-hot-path
// metis-lint: end-deterministic

}  // namespace sparse
}  // namespace metis::nn
