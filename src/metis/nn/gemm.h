// The dense kernels — the GEMM underneath every forward and backward pass
// in the library (and therefore under the trace-collection hot path that
// Figures 16/31 measure).
//
// Every entry point below runs one row of a table indexed by
// isa::active() (util/isa.h):
//
//  - kReference — the seed's triple loop (order r, k, c with a zero-skip
//    on the left operand), kept verbatim as the parity oracle; the _acc
//    products go into a zeroed scratch first and are then added, as the
//    old backward spelled acc += matmul(...).
//  - kGeneric, kAvx2, kAvx512f — cache-blocked, register-tiled kernels
//    with an explicitly vectorized inner loop (the accumulator tile lives
//    in registers across the whole k loop, so the hot loop has no C
//    traffic), compiled once per instruction set: avx512f a 4 x 16 tile
//    of 8-lane vectors, avx2 and generic 4 x 8 tiles of 4-lane vectors.
//    The transB kernel (dX += dY * W^T) first packs each column panel of
//    W^T into a thread-local buffer that keeps its capacity, so it runs
//    the same tile as the others without allocating in steady state.
//
// Bitwise-identity contract: every output element is the k-ascending
// accumulation sum_k a(r,k)*b(k,c) into a single accumulator, finished by
// at most one extra add (the bias, or the += of the _acc variants). Every
// level follows exactly that recipe, so for finite inputs the results are
// bitwise identical (tests/gemm_test.cpp enforces it over randomized
// shapes at every level the CPU supports). gemm.cpp is built with
// -ffp-contract=off: AVX-512F implies FMA, and a fused mul+add rounds once
// where the recipe rounds twice (metis-lint check 10 pins the flag). The
// only divergence the reference's zero-skip could introduce is 0 * inf /
// 0 * nan; no caller feeds non-finite operands.
#pragma once

#include "metis/nn/tensor.h"

namespace metis::nn::gemm {

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

}  // namespace metis::nn::gemm
