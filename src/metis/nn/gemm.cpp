#include "metis/nn/gemm.h"

#include <algorithm>
#include <vector>

#include "metis/util/check.h"
#include "metis/util/isa.h"

namespace metis::nn::gemm {
namespace {

// metis-lint: begin-deterministic — the GEMM kernels: every level must
// be bitwise identical to the reference loops (same floating-point
// operations in the same order), so kernel code may not consult clocks,
// addresses, or any other run-varying input.
// metis-lint: begin-hot-path
// ---- naive loops ------------------------------------------------------------
// The seed's reference loop, order (r, k, c) with the zero-skip on a —
// kept operation-for-operation so the kReference level IS the old
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
// Register tiling: a kMR x 2L accumulator tile (L = vector lanes) lives in
// registers across the full k loop (one store per output element instead
// of a load+store per k iteration), and the tile's columns are explicit
// vector lanes. Each lane is still a strictly k-ascending scalar mul+add
// chain — nothing is reassociated, and gemm.cpp is compiled with
// -ffp-contract=off so no mul+add pair is fused into an FMA (AVX-512F
// implies FMA) — which keeps the bitwise contract; only the reference's
// zero-skip is dropped, see gemm.h.

constexpr std::size_t kMR = 4;  // rows per register tile
constexpr std::size_t kNR = 8;  // narrowest tile: 2 x 4 lanes

// Explicit lane groups (GCC/Clang vector extension): a v4df op is one
// ymm instruction in the avx2 kernels and two SSE2 ops in the generic
// ones; a v8df op is one zmm instruction in the avx512f kernels. The
// helpers always inline into the ISA-specific entry points below, so no
// call with a vector argument crosses a function boundary (-Wpsabi is
// silenced for this file in CMakeLists.txt for the same reason). A lane
// group times a scalar (`v * x`, the same product as x * v) broadcasts x
// with one instruction; GCC builds a braced {x, ..., x} of 8 lanes inside
// a loop one masked lane at a time.
typedef double v4df __attribute__((vector_size(32), aligned(8)));
typedef double v8df __attribute__((vector_size(64), aligned(8)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

template <class V>
__attribute__((always_inline)) inline V loadu(const double* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
template <class V>
__attribute__((always_inline)) inline void storeu(double* p, V v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

// One MR x 2L register tile: out(i, 0..2L) (+)= sum_kk a(i, kk) *
// b(kk, 0..2L), i < MR. Element (i, kk) of the left operand is
// a[i * a_row + kk * a_k], which addresses A (row-major, m x k), A^T
// (stored k x m) and a single row alike; row kk of the right operand
// starts at b + kk * ldb, either B itself or a packed panel. Acc selects
// the epilogue: out += tile (the _acc kernels) or out = tile (+ bias).
template <class V, bool Acc, std::size_t MR = kMR>
__attribute__((always_inline)) inline void tile(
    std::size_t k, const double* __restrict a, std::size_t a_row,
    std::size_t a_k, const double* __restrict b, std::size_t ldb,
    const double* __restrict bias, double* __restrict out, std::size_t n) {
  constexpr std::size_t L = kLanes<V>;
  V acc[MR][2] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* b_row = b + kk * ldb;
    const V b0 = loadu<V>(b_row);
    const V b1 = loadu<V>(b_row + L);
    for (std::size_t i = 0; i < MR; ++i) {
      const double av = a[i * a_row + kk * a_k];
      acc[i][0] += b0 * av;
      acc[i][1] += b1 * av;
    }
  }
  for (std::size_t i = 0; i < MR; ++i) {
    double* out_row = out + i * n;
    if (Acc) {
      storeu(out_row, loadu<V>(out_row) + acc[i][0]);
      storeu(out_row + L, loadu<V>(out_row + L) + acc[i][1]);
    } else if (bias != nullptr) {
      storeu(out_row, acc[i][0] + loadu<V>(bias));
      storeu(out_row + L, acc[i][1] + loadu<V>(bias + L));
    } else {
      storeu(out_row, acc[i][0]);
      storeu(out_row + L, acc[i][1]);
    }
  }
}

// Covers columns [c, n) of one block of kMR output rows (`out` points at
// its first row) with kMR x 2L tiles while a whole tile fits, and returns
// the first column left over.
template <class V, bool Acc>
__attribute__((always_inline)) inline std::size_t tile_columns(
    std::size_t c, std::size_t k, std::size_t n, const double* __restrict a,
    std::size_t a_row, std::size_t a_k, const double* __restrict b,
    const double* __restrict bias, double* __restrict out) {
  constexpr std::size_t W = 2 * kLanes<V>;
  for (; c + W <= n; c += W) {
    tile<V, Acc>(k, a, a_row, a_k, b + c, n,
                 bias != nullptr ? bias + c : nullptr, out + c, n);
  }
  return c;
}

// The wide tile first, then the 4-lane tile for what it leaves of [c, n).
template <class V, bool Acc>
__attribute__((always_inline)) inline std::size_t tile_row_block(
    std::size_t k, std::size_t n, const double* __restrict a,
    std::size_t a_row, std::size_t a_k, const double* __restrict b,
    const double* __restrict bias, double* __restrict out) {
  std::size_t c = tile_columns<V, Acc>(0, k, n, a, a_row, a_k, b, bias, out);
  if constexpr (kLanes<V> > 4) {
    c = tile_columns<v4df, Acc>(c, k, n, a, a_row, a_k, b, bias, out);
  }
  return c;
}

// Tail regions of the product tiling (row/column leftovers): the naive
// streaming order (r, k, c) accumulating straight into the
// zero-initialized out, with vector c-lanes where they fit. Each output
// element is still one k-ascending add chain (accumulating in memory or
// in a register makes no bitwise difference), and the bias lands as one
// add after the sums complete.
__attribute__((always_inline)) inline void stream_region(
    std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1,
    std::size_t k, std::size_t n, const double* __restrict a,
    const double* __restrict b, const double* __restrict bias,
    double* __restrict out) {
  for (std::size_t r = r0; r < r1; ++r) {
    const double* a_row = a + r * k;
    double* out_row = out + r * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = a_row[kk];
      const double* b_row = b + kk * n;
      std::size_t c = c0;
      for (; c + 4 <= c1; c += 4) {
        storeu(out_row + c,
               loadu<v4df>(out_row + c) + loadu<v4df>(b_row + c) * av);
      }
      for (; c < c1; ++c) out_row[c] += av * b_row[c];
    }
    if (bias != nullptr) {
      for (std::size_t c = c0; c < c1; ++c) out_row[c] += bias[c];
    }
  }
}

// Skinny shapes — fewer than kMR rows or kNR columns — cannot fill a
// register tile, and the streaming fallback's per-k load/store of the
// output row made the tiled kernels LOSE to the reference loop there
// (1-row inference and the 6-wide policy head).
// Dedicated kernel: one register accumulator per output element, held
// across the whole k loop (vector 4-lanes while >= 4 columns remain,
// scalar tail after), with the bias landing as a single add once the
// k-sum completes. Every element is still the same strictly k-ascending
// chain, so the bitwise contract with the other kernels holds.
__attribute__((always_inline)) inline void skinny_matmul(
    std::size_t m, std::size_t k, std::size_t n, const double* __restrict a,
    const double* __restrict b, const double* __restrict bias,
    double* __restrict out) {
  for (std::size_t r = 0; r < m; ++r) {
    const double* a_row = a + r * k;
    double* out_row = out + r * n;
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
      v4df acc = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += loadu<v4df>(b + kk * n + c) * a_row[kk];
      }
      if (bias != nullptr) acc += loadu<v4df>(bias + c);
      storeu(out_row + c, acc);
    }
    for (; c < n; ++c) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a_row[kk] * b[kk * n + c];
      out_row[c] = bias != nullptr ? s + bias[c] : s;
    }
  }
}

// dW outputs narrower than a register tile (n < kNR: the 6-wide policy
// head, the 1-wide value head and delay net output). Column lanes would
// leave the vector mostly empty and each row's elements single
// latency-bound chains, so lanes run over L consecutive output rows
// instead, all N columns at once: out(i, c) += lane i of acc[c], the
// k-ascending chain sum_kk p[kk * ldp + i] * b(kk, c) finished by one add
// — the header's recipe. The L values at step kk are contiguous at
// p + kk * ldp, a row of A^T.
template <class V, std::size_t N>
__attribute__((always_inline)) inline void narrow_lane_rows(
    std::size_t k, const double* __restrict p, std::size_t ldp,
    const double* __restrict b, double* __restrict out) {
  constexpr std::size_t L = kLanes<V>;
  V acc[N] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const V pv = loadu<V>(p + kk * ldp);
    const double* b_row = b + kk * N;
    for (std::size_t c = 0; c < N; ++c) acc[c] += pv * b_row[c];
  }
  for (std::size_t i = 0; i < L; ++i) {
    for (std::size_t c = 0; c < N; ++c) out[i * N + c] += acc[c][i];
  }
}

// C += A^T * B for n = N < kNR: rows in lane groups of L (then of 4 on
// the avx512f set), the last m % 4 as scalar k-chains.
template <class V, std::size_t N>
__attribute__((always_inline)) inline void narrow_transA_acc(
    std::size_t m, std::size_t k, const double* __restrict a,
    const double* __restrict b, double* __restrict out) {
  std::size_t r = 0;
  for (; r + kLanes<V> <= m; r += kLanes<V>) {
    narrow_lane_rows<V, N>(k, a + r, m, b, out + r * N);
  }
  if constexpr (kLanes<V> > 4) {
    for (; r + 4 <= m; r += 4) {
      narrow_lane_rows<v4df, N>(k, a + r, m, b, out + r * N);
    }
  }
  for (; r < m; ++r) {
    for (std::size_t c = 0; c < N; ++c) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a[kk * m + r] * b[kk * N + c];
      out[r * N + c] += s;
    }
  }
}

// Instantiates `kernel<V, N>` for the runtime width n (1 <= n < kNR), so
// the N accumulators of narrow_lane_rows stay in registers.
#define METIS_GEMM_NARROW(kernel, V, n, ...)                \
  switch (n) {                                              \
    case 1: kernel<V, 1>(__VA_ARGS__); break;               \
    case 2: kernel<V, 2>(__VA_ARGS__); break;               \
    case 3: kernel<V, 3>(__VA_ARGS__); break;               \
    case 4: kernel<V, 4>(__VA_ARGS__); break;               \
    case 5: kernel<V, 5>(__VA_ARGS__); break;               \
    case 6: kernel<V, 6>(__VA_ARGS__); break;               \
    case 7: kernel<V, 7>(__VA_ARGS__); break;               \
    default: break;                                         \
  }
static_assert(kNR == 8, "METIS_GEMM_NARROW covers n = 1 .. kNR - 1");

// C = A * B, with an optional 1 x n bias row added to every output row.
// Shapes that cannot fill a register tile go to the skinny kernel.
template <class V>
__attribute__((always_inline)) inline void matmul_kernel(
    std::size_t m, std::size_t k, std::size_t n, const double* __restrict a,
    const double* __restrict b, const double* __restrict bias,
    double* __restrict out) {
  if (m < kMR || n < kNR) {
    skinny_matmul(m, k, n, a, b, bias, out);
    return;
  }
  std::size_t r = 0;
  for (; r + kMR <= m; r += kMR) {
    const std::size_t c =
        tile_row_block<V, false>(k, n, a + r * k, k, 1, b, bias, out + r * n);
    if (c < n) stream_region(r, r + kMR, c, n, k, n, a, b, bias, out);
  }
  if (r < m) stream_region(r, m, 0, n, k, n, a, b, bias, out);
}

// C += A^T * B, a (k x m). b rows stay contiguous, so it tiles exactly
// like matmul_kernel; leftovers are scalar k-chains finished by one add.
// Narrow outputs run lanes over the m rows, contiguous in a.
template <class V>
__attribute__((always_inline)) inline void transA_acc_kernel(
    std::size_t m, std::size_t k, std::size_t n, const double* __restrict a,
    const double* __restrict b, double* __restrict out) {
  if (n < kNR) {
    METIS_GEMM_NARROW(narrow_transA_acc, V, n, m, k, a, b, out)
    return;
  }
  std::size_t r = 0;
  for (; r + kMR <= m; r += kMR) {
    for (std::size_t c = tile_row_block<V, true>(k, n, a + r, 1, m, b,
                                                 nullptr, out + r * n);
         c < n; ++c) {
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

// Scratch for transB's packed panels and the reference _acc products:
// thread-local, grown to the largest request seen and kept, so a
// steady-state backward never allocates.
double* scratch(std::size_t count) {
  thread_local std::vector<double> buf;
  if (buf.size() < count) buf.resize(count);
  return buf.data();
}

// Covers columns [c, n) of C += A * B^T with 2L-wide column panels while
// a whole panel fits, and returns the first column left over. B (n x k)
// is walked along k, so each panel of B^T is first packed k x 2L into
// `panel` (row kk = b(c..c+2L, kk)); the rows of A then run the same
// register tile as matmul_kernel over it, kMR rows at a time and one row
// at a time for the last m % kMR.
template <class V>
__attribute__((always_inline)) inline std::size_t transB_panels(
    std::size_t c, std::size_t m, std::size_t k, std::size_t n,
    const double* __restrict a, const double* __restrict b,
    double* __restrict panel, double* __restrict out) {
  constexpr std::size_t W = 2 * kLanes<V>;
  for (; c + W <= n; c += W) {
    for (std::size_t j = 0; j < W; ++j) {
      const double* b_row = b + (c + j) * k;
      for (std::size_t kk = 0; kk < k; ++kk) panel[kk * W + j] = b_row[kk];
    }
    std::size_t r = 0;
    for (; r + kMR <= m; r += kMR) {
      tile<V, true>(k, a + r * k, k, 1, panel, W, nullptr, out + r * n + c, n);
    }
    for (; r < m; ++r) {
      tile<V, true, 1>(k, a + r * k, k, 1, panel, W, nullptr, out + r * n + c,
                       n);
    }
  }
  return c;
}

// C += A * B^T, b (n x k): packed panels of the wide tile, then of the
// 4-lane tile; the columns left over are scalar k-chains (contiguous in
// both operands) finished by one add.
template <class V>
__attribute__((always_inline)) inline void transB_acc_kernel(
    std::size_t m, std::size_t k, std::size_t n, const double* __restrict a,
    const double* __restrict b, double* __restrict out) {
  double* panel = scratch(k * 2 * kLanes<V>);
  std::size_t c = transB_panels<V>(0, m, k, n, a, b, panel, out);
  if constexpr (kLanes<V> > 4) {
    c = transB_panels<v4df>(c, m, k, n, a, b, panel, out);
  }
  for (; c < n; ++c) {
    const double* b_row = b + c * k;
    for (std::size_t r = 0; r < m; ++r) {
      const double* a_row = a + r * k;
      double s = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a_row[kk] * b_row[kk];
      out[r * n + c] += s;
    }
  }
}

// ---- ISA dispatch -----------------------------------------------------------
// One kernel set per isa::Level, over raw row-major operands with the
// shapes of the public entry points: matmul (a m x k, b k x n, optional
// 1 x n bias, out = a * b + bias), transB_acc (a m x k, b n x k,
// out += a * b^T) and transA_acc (a k x m, b k x n, out += a^T * b).
struct KernelSet {
  void (*matmul)(std::size_t m, std::size_t k, std::size_t n, const double* a,
                 const double* b, const double* bias, double* out);
  void (*transB_acc)(std::size_t m, std::size_t k, std::size_t n,
                     const double* a, const double* b, double* out);
  void (*transA_acc)(std::size_t m, std::size_t k, std::size_t n,
                     const double* a, const double* b, double* out);
};

// kReference: the naive loops, with the bias and the += each one
// elementwise add once the products are complete — the old
// Tensor::matmul + broadcast add and acc += matmul(...) spellings.
void reference_matmul(std::size_t m, std::size_t k, std::size_t n,
                      const double* a, const double* b, const double* bias,
                      double* out) {
  std::fill_n(out, m * n, 0.0);
  naive_matmul(m, k, n, a, b, out);
  if (bias == nullptr) return;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) out[r * n + c] += bias[c];
  }
}

template <void (*Naive)(std::size_t, std::size_t, std::size_t, const double*,
                        const double*, double*)>
void reference_acc(std::size_t m, std::size_t k, std::size_t n,
                   const double* a, const double* b, double* out) {
  double* tmp = scratch(m * n);
  std::fill_n(tmp, m * n, 0.0);
  Naive(m, k, n, a, b, tmp);
  for (std::size_t i = 0; i < m * n; ++i) out[i] += tmp[i];
}

// The other levels instantiate the templates above inside one entry point
// per kernel, compiled for one instruction set. A plain function-pointer
// table (not target_clones/ifunc) keeps the choice out of the dynamic
// linker, so sanitized builds run the same kernels as release builds.
#define METIS_GEMM_KERNEL_SET(name, attr, V)                                  \
  attr void name##_matmul(std::size_t m, std::size_t k, std::size_t n,        \
                          const double* a, const double* b,                   \
                          const double* bias, double* out) {                  \
    matmul_kernel<V>(m, k, n, a, b, bias, out);                               \
  }                                                                           \
  attr void name##_transB_acc(std::size_t m, std::size_t k, std::size_t n,    \
                              const double* a, const double* b,               \
                              double* out) {                                  \
    transB_acc_kernel<V>(m, k, n, a, b, out);                                 \
  }                                                                           \
  attr void name##_transA_acc(std::size_t m, std::size_t k, std::size_t n,    \
                              const double* a, const double* b,               \
                              double* out) {                                  \
    transA_acc_kernel<V>(m, k, n, a, b, out);                                 \
  }

METIS_GEMM_KERNEL_SET(generic, , v4df)
#if defined(__x86_64__)
METIS_GEMM_KERNEL_SET(avx2, __attribute__((target("avx2"))), v4df)
METIS_GEMM_KERNEL_SET(avx512f, __attribute__((target("avx512f"))), v8df)
#endif
#undef METIS_GEMM_KERNEL_SET
#undef METIS_GEMM_NARROW

// Indexed by isa::Level.
constexpr KernelSet kKernels[] = {
    {reference_matmul, reference_acc<naive_matmul_transB>,
     reference_acc<naive_matmul_transA>},
    {generic_matmul, generic_transB_acc, generic_transA_acc},
#if defined(__x86_64__)
    {avx2_matmul, avx2_transB_acc, avx2_transA_acc},
    {avx512f_matmul, avx512f_transB_acc, avx512f_transA_acc},
#endif
};

const KernelSet& kernels() {
  return kKernels[static_cast<std::size_t>(isa::active())];
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  MET_CHECK_MSG(a.cols() == b.rows(), "matmul inner dimensions must agree");
  Tensor out(a.rows(), b.cols(), 0.0);
  if (out.empty() || a.cols() == 0) return out;
  kernels().matmul(a.rows(), a.cols(), b.cols(), a.data().data(),
                   b.data().data(), nullptr, out.data().data());
  return out;
}

Tensor matmul_add_bias(const Tensor& a, const Tensor& b, const Tensor& bias) {
  MET_CHECK_MSG(a.cols() == b.rows(), "matmul inner dimensions must agree");
  MET_CHECK_MSG(bias.rows() == 1 && bias.cols() == b.cols(),
                "matmul_add_bias: bias must be 1 x cols(b)");
  Tensor out(a.rows(), b.cols(), 0.0);
  if (out.empty()) return out;
  kernels().matmul(a.rows(), a.cols(), b.cols(), a.data().data(),
                   b.data().data(), bias.data().data(), out.data().data());
  return out;
}

void matmul_transB_acc(const Tensor& a, const Tensor& b, Tensor& acc) {
  MET_CHECK_MSG(a.cols() == b.cols(),
                "matmul_transB_acc inner dimensions must agree");
  MET_CHECK_MSG(acc.rows() == a.rows() && acc.cols() == b.rows(),
                "matmul_transB_acc: acc shape mismatch");
  if (acc.empty()) return;
  kernels().transB_acc(a.rows(), a.cols(), b.rows(), a.data().data(),
                       b.data().data(), acc.data().data());
}

void matmul_transA_acc(const Tensor& a, const Tensor& b, Tensor& acc) {
  MET_CHECK_MSG(a.rows() == b.rows(),
                "matmul_transA_acc inner dimensions must agree");
  MET_CHECK_MSG(acc.rows() == a.cols() && acc.cols() == b.cols(),
                "matmul_transA_acc: acc shape mismatch");
  if (acc.empty()) return;
  kernels().transA_acc(a.cols(), a.rows(), b.cols(), a.data().data(),
                       b.data().data(), acc.data().data());
}

// metis-lint: end-hot-path
// metis-lint: end-deterministic

}  // namespace metis::nn::gemm
