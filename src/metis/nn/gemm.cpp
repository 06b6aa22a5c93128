#include "metis/nn/gemm.h"

#include <atomic>
#include <cstdlib>

#include "metis/util/check.h"

namespace metis::nn::gemm {
namespace {

Backend initial_backend() {
  if (const char* env = std::getenv("METIS_GEMM_BACKEND")) {
    if (auto parsed = parse_backend(env)) return *parsed;
  }
  return Backend::kBlocked;
}

std::atomic<Backend>& backend_slot() {
  static std::atomic<Backend> slot{initial_backend()};
  return slot;
}

// metis-lint: begin-deterministic — the GEMM kernels: the blocked
// backend must be bitwise identical to the naive reference (same
// floating-point operations in the same order), so kernel code may not
// consult clocks, addresses, or any other run-varying input.
// metis-lint: begin-hot-path
// ---- naive kernels ----------------------------------------------------------
// The seed's reference loop, order (r, k, c) with the zero-skip on a —
// kept operation-for-operation so the naive backend IS the old
// Tensor::matmul, minus the per-element bounds checks.

void naive_matmul(std::size_t m, std::size_t k, std::size_t n,
                  const double* a, const double* b, double* out) {
  for (std::size_t r = 0; r < m; ++r) {
    double* out_row = out + r * n;
    const double* a_row = a + r * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = a_row[kk];
      if (av == 0.0) continue;
      const double* b_row = b + kk * n;
      for (std::size_t c = 0; c < n; ++c) out_row[c] += av * b_row[c];
    }
  }
}

// out = a * b^T with b (n x k): the same loop with b addressed through the
// transpose, so the products and their order match naive_matmul(a, b^T).
void naive_matmul_transB(std::size_t m, std::size_t k, std::size_t n,
                         const double* a, const double* b, double* out) {
  for (std::size_t r = 0; r < m; ++r) {
    double* out_row = out + r * n;
    const double* a_row = a + r * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = a_row[kk];
      if (av == 0.0) continue;
      for (std::size_t c = 0; c < n; ++c) out_row[c] += av * b[c * k + kk];
    }
  }
}

// out = a^T * b with a (k x m): matches naive_matmul(a^T, b).
void naive_matmul_transA(std::size_t m, std::size_t k, std::size_t n,
                         const double* a, const double* b, double* out) {
  for (std::size_t r = 0; r < m; ++r) {
    double* out_row = out + r * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = a[kk * m + r];
      if (av == 0.0) continue;
      const double* b_row = b + kk * n;
      for (std::size_t c = 0; c < n; ++c) out_row[c] += av * b_row[c];
    }
  }
}

// ---- blocked kernels --------------------------------------------------------
// Register tiling: an kMR x kNR accumulator tile lives in registers across
// the full k loop (one store per output element instead of a load+store
// per k iteration), and the j loop over the tile's columns vectorizes —
// it has constant bounds, contiguous b rows, and no reassociation (each
// acc[i][j] is still a strictly k-ascending scalar chain, which keeps the
// bitwise contract; only the naive zero-skip is dropped, see gemm.h).

constexpr std::size_t kMR = 4;  // rows per register tile
constexpr std::size_t kNR = 8;  // columns per register tile

// Function multi-versioning: emit an AVX2 clone of each blocked kernel
// next to the baseline one and let the dynamic linker pick per-CPU.
// Note -mavx2 deliberately does NOT enable FMA: contracting the mul+add
// chains would change rounding and break the bitwise contract with the
// naive loop.
//
// ThreadSanitizer cannot run ifunc resolvers (they execute before the
// runtime initializes), so sanitized builds fall back to the un-cloned
// kernels — same results, baseline ISA.
#if defined(__SANITIZE_THREAD__)
#define METIS_GEMM_NO_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define METIS_GEMM_NO_CLONES 1
#endif
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define METIS_GEMM_VEC 1
#endif
#if defined(METIS_GEMM_VEC) && !defined(METIS_GEMM_NO_CLONES)
#define METIS_GEMM_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define METIS_GEMM_CLONES
#endif

#ifdef METIS_GEMM_VEC
// Explicit 4-double lane group (GCC/Clang vector extension) so the
// accumulator tile provably stays in registers: the avx2 clone lowers
// each op to one ymm instruction, the default clone to two SSE2 xmm ops.
// Every lane is still an independent scalar mul+add chain over ascending
// k, so vectorizing this way cannot change a single bit.
// (-Wpsabi notes that passing 32-byte vectors without AVX would change
// the ABI; these helpers always inline, so no cross-TU call exists.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"
typedef double v4df __attribute__((vector_size(32), aligned(8)));

__attribute__((always_inline)) inline v4df loadu4(const double* p) {
  v4df v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
__attribute__((always_inline)) inline void storeu4(double* p, v4df v) {
  __builtin_memcpy(p, &v, sizeof(v));
}
__attribute__((always_inline)) inline v4df broadcast4(double x) {
  return v4df{x, x, x, x};
}
#pragma GCC diagnostic pop
#endif

template <bool Add>
inline void apply_tile(const double (&acc)[kMR][kNR], const double* bias,
                       std::size_t r, std::size_t c, std::size_t n,
                       double* out) {
  for (std::size_t i = 0; i < kMR; ++i) {
    double* out_row = out + (r + i) * n + c;
    if (Add) {
      for (std::size_t j = 0; j < kNR; ++j) out_row[j] += acc[i][j];
    } else if (bias != nullptr) {
      for (std::size_t j = 0; j < kNR; ++j) out_row[j] = acc[i][j] + bias[c + j];
    } else {
      for (std::size_t j = 0; j < kNR; ++j) out_row[j] = acc[i][j];
    }
  }
}

// Tail regions of the product tiling (row/column leftovers, and every
// matrix with fewer than kMR rows): the naive streaming order (r, k, c)
// accumulating straight into the zero-initialized out, with vector
// c-lanes where they fit. Each output element is still one k-ascending
// add chain (accumulating in memory or in a register makes no bitwise
// difference), and the bias lands as one add after the sums complete.
__attribute__((always_inline)) inline void stream_region(
    std::size_t r0, std::size_t r1, std::size_t c0,
    std::size_t c1, std::size_t k, std::size_t n,
                          const double* __restrict a,
                          const double* __restrict b,
                          const double* __restrict bias,
                          double* __restrict out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const double* a_row = a + r * k;
    double* out_row = out + r * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = a_row[kk];
      const double* b_row = b + kk * n;
      std::size_t c = c0;
#ifdef METIS_GEMM_VEC
      const v4df avv = broadcast4(av);
      for (; c + 4 <= c1; c += 4) {
        storeu4(out_row + c, loadu4(out_row + c) + avv * loadu4(b_row + c));
      }
#endif
      for (; c < c1; ++c) out_row[c] += av * b_row[c];
    }
    if (bias != nullptr) {
      for (std::size_t c = c0; c < c1; ++c) out_row[c] += bias[c];
    }
  }
}

// Skinny shapes — fewer than kMR rows or kNR columns — cannot fill a
// register tile, and the streaming fallback's per-k load/store of the
// output row made the blocked backend LOSE to naive there (1-row
// inference and the 6-wide policy head, see BENCH_gemm.json history).
// Dedicated kernel: one register accumulator per output element, held
// across the whole k loop (vector 4-lanes while >= 4 columns remain,
// scalar tail after), with the bias landing as a single add once the
// k-sum completes. Every element is still the same strictly k-ascending
// chain, so the bitwise contract with the other kernels holds.
METIS_GEMM_CLONES
void skinny_matmul(std::size_t m, std::size_t k, std::size_t n,
                   const double* __restrict a, const double* __restrict b,
                   const double* __restrict bias, double* __restrict out) {
  for (std::size_t r = 0; r < m; ++r) {
    const double* a_row = a + r * k;
    double* out_row = out + r * n;
    std::size_t c = 0;
#ifdef METIS_GEMM_VEC
    for (; c + 4 <= n; c += 4) {
      v4df acc = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += broadcast4(a_row[kk]) * loadu4(b + kk * n + c);
      }
      if (bias != nullptr) acc += loadu4(bias + c);
      storeu4(out_row + c, acc);
    }
#endif
    for (; c < n; ++c) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a_row[kk] * b[kk * n + c];
      out_row[c] = bias != nullptr ? s + bias[c] : s;
    }
  }
}

// C = A * B, with an optional 1 x n bias row added to every output row.
METIS_GEMM_CLONES
void blocked_matmul(std::size_t m, std::size_t k, std::size_t n,
                    const double* __restrict a, const double* __restrict b,
                    const double* __restrict bias, double* __restrict out) {
  std::size_t r = 0;
  for (; r + kMR <= m; r += kMR) {
    const double* a_rows = a + r * k;
    std::size_t c = 0;
#ifdef METIS_GEMM_VEC
    for (; c + kNR <= n; c += kNR) {
      v4df acc[kMR][2] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* b_row = b + kk * n + c;
        const v4df b0 = loadu4(b_row);
        const v4df b1 = loadu4(b_row + 4);
        for (std::size_t i = 0; i < kMR; ++i) {
          const v4df av = broadcast4(a_rows[i * k + kk]);
          acc[i][0] += av * b0;
          acc[i][1] += av * b1;
        }
      }
      for (std::size_t i = 0; i < kMR; ++i) {
        double* out_row = out + (r + i) * n + c;
        if (bias != nullptr) {
          storeu4(out_row, acc[i][0] + loadu4(bias + c));
          storeu4(out_row + 4, acc[i][1] + loadu4(bias + c + 4));
        } else {
          storeu4(out_row, acc[i][0]);
          storeu4(out_row + 4, acc[i][1]);
        }
      }
    }
#else
    for (; c + kNR <= n; c += kNR) {
      double acc[kMR][kNR] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* b_row = b + kk * n + c;
        for (std::size_t i = 0; i < kMR; ++i) {
          const double av = a_rows[i * k + kk];
          for (std::size_t j = 0; j < kNR; ++j) acc[i][j] += av * b_row[j];
        }
      }
      apply_tile<false>(acc, bias, r, c, n, out);
    }
#endif
    if (c < n) stream_region(r, r + kMR, c, n, k, n, a, b, bias, out);
  }
  if (r < m) stream_region(r, m, 0, n, k, n, a, b, bias, out);
}

// C += A * B^T, b (n x k). Both operands are walked along k, so the j
// lanes cannot share vector loads — a smaller 4 x 4 SCALAR accumulator
// tile (16 independent k-chains, enough ILP to hide add latency) keeps
// everything in registers without spills.
METIS_GEMM_CLONES
void blocked_matmul_transB_acc(std::size_t m, std::size_t k, std::size_t n,
                               const double* __restrict a,
                               const double* __restrict b,
                               double* __restrict out) {
  constexpr std::size_t kNRt = 4;
  std::size_t r = 0;
  for (; r + kMR <= m; r += kMR) {
    const double* a_rows = a + r * k;
    std::size_t c = 0;
    for (; c + kNRt <= n; c += kNRt) {
      double acc[kMR][kNRt] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t i = 0; i < kMR; ++i) {
          const double av = a_rows[i * k + kk];
          for (std::size_t j = 0; j < kNRt; ++j) {
            acc[i][j] += av * b[(c + j) * k + kk];
          }
        }
      }
      for (std::size_t i = 0; i < kMR; ++i) {
        double* out_row = out + (r + i) * n + c;
        for (std::size_t j = 0; j < kNRt; ++j) out_row[j] += acc[i][j];
      }
    }
    for (; c < n; ++c) {
      const double* b_row = b + c * k;
      for (std::size_t i = 0; i < kMR; ++i) {
        const double* a_row = a_rows + i * k;
        double s = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) s += a_row[kk] * b_row[kk];
        out[(r + i) * n + c] += s;
      }
    }
  }
  for (; r < m; ++r) {
    const double* a_row = a + r * k;
    for (std::size_t c = 0; c < n; ++c) {
      const double* b_row = b + c * k;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a_row[kk] * b_row[kk];
      out[r * n + c] += s;
    }
  }
}

// C += A^T * B, a (k x m). b rows stay contiguous, so the inner j loop
// vectorizes exactly like blocked_matmul's.
METIS_GEMM_CLONES
void blocked_matmul_transA_acc(std::size_t m, std::size_t k, std::size_t n,
                               const double* __restrict a,
                               const double* __restrict b,
                               double* __restrict out) {
  std::size_t r = 0;
  for (; r + kMR <= m; r += kMR) {
    std::size_t c = 0;
#ifdef METIS_GEMM_VEC
    for (; c + kNR <= n; c += kNR) {
      v4df acc[kMR][2] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* a_col = a + kk * m + r;
        const double* b_row = b + kk * n + c;
        const v4df b0 = loadu4(b_row);
        const v4df b1 = loadu4(b_row + 4);
        for (std::size_t i = 0; i < kMR; ++i) {
          const v4df av = broadcast4(a_col[i]);
          acc[i][0] += av * b0;
          acc[i][1] += av * b1;
        }
      }
      for (std::size_t i = 0; i < kMR; ++i) {
        double* out_row = out + (r + i) * n + c;
        storeu4(out_row, loadu4(out_row) + acc[i][0]);
        storeu4(out_row + 4, loadu4(out_row + 4) + acc[i][1]);
      }
    }
#else
    for (; c + kNR <= n; c += kNR) {
      double acc[kMR][kNR] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* a_col = a + kk * m + r;
        const double* b_row = b + kk * n + c;
        for (std::size_t i = 0; i < kMR; ++i) {
          const double av = a_col[i];
          for (std::size_t j = 0; j < kNR; ++j) acc[i][j] += av * b_row[j];
        }
      }
      apply_tile<true>(acc, nullptr, r, c, n, out);
    }
#endif
    for (; c < n; ++c) {
      for (std::size_t i = 0; i < kMR; ++i) {
        double s = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) {
          s += a[kk * m + r + i] * b[kk * n + c];
        }
        out[(r + i) * n + c] += s;
      }
    }
  }
  for (; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a[kk * m + r] * b[kk * n + c];
      out[r * n + c] += s;
    }
  }
}

// Blocked-backend entry: route shapes that cannot fill a register tile
// to the skinny kernel, everything else to the tiled one.
void blocked_dispatch(std::size_t m, std::size_t k, std::size_t n,
                      const double* a, const double* b, const double* bias,
                      double* out) {
  if (m < kMR || n < kNR) {
    skinny_matmul(m, k, n, a, b, bias, out);
  } else {
    blocked_matmul(m, k, n, a, b, bias, out);
  }
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kNaive: return "naive";
    case Backend::kBlocked: return "blocked";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "naive") return Backend::kNaive;
  if (name == "blocked") return Backend::kBlocked;
  return std::nullopt;
}

Backend backend() {
  return backend_slot().load(std::memory_order_relaxed);
}

void set_backend(Backend backend) {
  backend_slot().store(backend, std::memory_order_relaxed);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  MET_CHECK_MSG(a.cols() == b.rows(), "matmul inner dimensions must agree");
  Tensor out(a.rows(), b.cols(), 0.0);
  if (out.empty() || a.cols() == 0) return out;
  if (backend() == Backend::kBlocked) {
    blocked_dispatch(a.rows(), a.cols(), b.cols(), a.data().data(),
                     b.data().data(), nullptr, out.data().data());
  } else {
    naive_matmul(a.rows(), a.cols(), b.cols(), a.data().data(),
                 b.data().data(), out.data().data());
  }
  return out;
}

Tensor matmul_add_bias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  MET_CHECK_MSG(a.cols() == b.rows(), "matmul inner dimensions must agree");
  MET_CHECK_MSG(bias.rows() == 1 && bias.cols() == b.cols(),
                "matmul_add_bias: bias must be 1 x cols(b)");
  Tensor out(a.rows(), b.cols(), 0.0);
  if (out.empty()) return out;
  if (backend() == Backend::kBlocked) {
    blocked_dispatch(a.rows(), a.cols(), b.cols(), a.data().data(),
                     b.data().data(), bias.data().data(), out.data().data());
  } else {
    naive_matmul(a.rows(), a.cols(), b.cols(), a.data().data(),
                 b.data().data(), out.data().data());
    for (std::size_t r = 0; r < out.rows(); ++r) {
      for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += bias(0, c);
    }
  }
  return out;
}

void matmul_transB_acc(const Tensor& a, const Tensor& b, Tensor& acc) {
  MET_CHECK_MSG(a.cols() == b.cols(),
                "matmul_transB_acc inner dimensions must agree");
  MET_CHECK_MSG(acc.rows() == a.rows() && acc.cols() == b.rows(),
                "matmul_transB_acc: acc shape mismatch");
  if (acc.empty()) return;
  if (backend() == Backend::kBlocked) {
    blocked_matmul_transB_acc(a.rows(), a.cols(), b.rows(), a.data().data(),
                              b.data().data(), acc.data().data());
  } else {
    // Product into a fresh temp, then one elementwise add — exactly
    // acc += matmul(a, b.transposed()) as the old backward spelled it.
    Tensor tmp(acc.rows(), acc.cols(), 0.0);
    naive_matmul_transB(a.rows(), a.cols(), b.rows(), a.data().data(),
                        b.data().data(), tmp.data().data());
    acc += tmp;
  }
}

void matmul_transA_acc(const Tensor& a, const Tensor& b, Tensor& acc) {
  MET_CHECK_MSG(a.rows() == b.rows(),
                "matmul_transA_acc inner dimensions must agree");
  MET_CHECK_MSG(acc.rows() == a.cols() && acc.cols() == b.cols(),
                "matmul_transA_acc: acc shape mismatch");
  if (acc.empty()) return;
  if (backend() == Backend::kBlocked) {
    blocked_matmul_transA_acc(a.cols(), a.rows(), b.cols(), a.data().data(),
                              b.data().data(), acc.data().data());
  } else {
    Tensor tmp(acc.rows(), acc.cols(), 0.0);
    naive_matmul_transA(a.cols(), a.rows(), b.cols(), a.data().data(),
                        b.data().data(), tmp.data().data());
    acc += tmp;
  }
}

// metis-lint: end-hot-path
// metis-lint: end-deterministic

}  // namespace metis::nn::gemm
