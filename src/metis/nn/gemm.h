// Pluggable dense-kernel backend — the GEMM underneath every forward and
// backward pass in the library (and therefore under the trace-collection
// hot path that Figures 16/31 measure).
//
// Two implementations of every kernel are selectable at runtime:
//
//  - Backend::kNaive   — the seed's reference triple loop (order r, k, c
//    with a zero-skip on the left operand), kept verbatim as the parity
//    oracle for A/B testing.
//  - Backend::kBlocked — the default: cache-blocked, register-tiled
//    kernels with an explicitly vectorized inner loop (the accumulator
//    tile lives in registers across the whole k loop, so the hot loop has
//    no C traffic). The kernels are compiled once per instruction set —
//    avx512f (a 4 x 16 tile of 8-lane vectors), avx2 and generic (4 x 8
//    tiles of 4-lane vectors) — and the first call picks one set for the
//    process from the running CPU; blocked_isa() names it. The transB
//    kernel (dX += dY * W^T) first packs each column panel of W^T into a
//    thread-local buffer that keeps its capacity, so it runs the same
//    tile as the others without allocating in steady state.
//
// Bitwise-identity contract: every output element is the k-ascending
// accumulation sum_k a(r,k)*b(k,c) into a single accumulator, finished by
// at most one extra add (the bias, or the += of the _acc variants). Both
// backends and every instruction set follow exactly that recipe, so for
// finite inputs the results are bitwise identical (tests/gemm_test.cpp
// enforces it over randomized shapes). gemm.cpp is built with
// -ffp-contract=off: AVX-512F implies FMA, and a fused mul+add rounds once
// where the recipe rounds twice (metis-lint check 10 pins the flag). The
// only divergence the naive zero-skip could introduce is 0 * inf /
// 0 * nan; no caller feeds non-finite operands.
//
// Selection: set_backend() at runtime or the METIS_GEMM_BACKEND
// environment variable ("naive" | "blocked") at startup; blocked
// otherwise.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "metis/nn/tensor.h"

namespace metis::nn::gemm {

enum class Backend { kNaive, kBlocked };

[[nodiscard]] const char* to_string(Backend backend);
// "naive"/"blocked" -> the enum; anything else -> nullopt.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

// Process-wide backend selection. Initialized once from METIS_GEMM_BACKEND
// (falling back to blocked); reads are a relaxed atomic load, so flipping
// mid-run is safe and cheap to query on the hot path.
[[nodiscard]] Backend backend();
void set_backend(Backend backend);

// The instruction set the blocked kernels run with in this process:
// "avx512f", "avx2" or "generic". Chosen once, on first use.
[[nodiscard]] const char* blocked_isa();

// RAII backend override for A/B parity tests and benches.
class BackendScope {
 public:
  explicit BackendScope(Backend b) : saved_(backend()) { set_backend(b); }
  ~BackendScope() { set_backend(saved_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  Backend saved_;
};

// (m x k) * (k x n) -> (m x n).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

// a * b with the 1 x n `bias` row added to every output row — the fused
// form of Linear's forward. Each element is (completed k-sum) + bias(c),
// bitwise identical to matmul followed by a broadcast add.
[[nodiscard]] Tensor matmul_add_bias(const Tensor& a, const Tensor& b,
                                     const Tensor& bias);

// acc += a * b^T  (a: m x k, b: n x k, acc: m x n). Each acc element
// receives ONE add of the completed k-sum, bitwise identical to
// acc += matmul(a, b.transposed()) — without materializing the transpose
// (the autodiff matmul/linear backward's dX += dY * W^T path).
void matmul_transB_acc(const Tensor& a, const Tensor& b, Tensor& acc);

// acc += a^T * b  (a: k x m, b: k x n, acc: m x n). Same single-add
// contract; the backward's dW += X^T * dY path.
void matmul_transA_acc(const Tensor& a, const Tensor& b, Tensor& acc);

namespace detail {

// One instruction set's blocked kernels over raw row-major operands, with
// the shapes of the public entry points above: matmul (a m x k, b k x n,
// optional 1 x n bias, out = a * b + bias), transB_acc (a m x k, b n x k,
// out += a * b^T) and transA_acc (a k x m, b k x n, out += a^T * b).
struct KernelSet {
  const char* isa;  // "avx512f", "avx2" or "generic"
  void (*matmul)(std::size_t m, std::size_t k, std::size_t n, const double* a,
                 const double* b, const double* bias, double* out);
  void (*transB_acc)(std::size_t m, std::size_t k, std::size_t n,
                     const double* a, const double* b, double* out);
  void (*transA_acc)(std::size_t m, std::size_t k, std::size_t n,
                     const double* a, const double* b, double* out);
};

// For tests: every compiled set the running CPU supports, best first; the
// blocked backend runs the first.
[[nodiscard]] std::vector<const KernelSet*> supported_kernel_sets();

}  // namespace detail

}  // namespace metis::nn::gemm
