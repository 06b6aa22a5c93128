// The library's own elementwise tanh and logistic over spans: the
// activations of tanh_op and sigmoid, and the Eq. 9 gating of
// gated_sigmoid (nn/autodiff.h).
//
// One algorithm, no libm. tanh(x) = sign(x) · em1 / (em1 + 2) with
// em1 = expm1(2|x|); logistic(x) = n / (1 + e) with e = exp(−|x|) and
// n = e for x < 0, 1 otherwise. Both reduce their exponent argument by
// ln 2: k = round(t / ln 2) through the 1.5·2⁵² rounding trick,
// r = (t − k·ln2_hi) − k·ln2_lo with |r| <= ln 2 / 2, expm1(r) from its
// degree-13 Taylor polynomial, and 2ᵏ built from exponent bits. The sign
// of tanh is restored by bit, so tanh is exactly odd.
//
// Accuracy contract (tests/vmath_test.cpp, against tanhl and
// 1 / (1 + expl(−x))):
//  - at most 3 ulp from the exact value, subnormal results included;
//  - tanh(−x) == −tanh(x) bit for bit, |tanh(x)| <= 1, tanh(±0) = ±0;
//  - 0 <= logistic(x) <= 1, logistic(±0) = 0.5;
//  - tanh(±inf) = ±1, logistic(+inf) = 1, logistic(−inf) = 0;
//  - a NaN input comes back unchanged.
//
// The kernels are compiled once per instruction set (avx512f on 8 lanes,
// avx2 on 4, generic on 2, in vmath.cpp), and the entry points run the
// set of isa::active() (util/isa.h); at kReference they run the scalar
// instance of the same template, tanh_reference/logistic_reference, over
// the span. Lanes past the last whole vector run that scalar instance
// too, and the file is built with -ffp-contract=off (CMakeLists.txt;
// metis-lint check 10 pins it), so every level returns the scalar
// reference's bits: results, and the masks built on them, do not depend
// on the CPU or the host's libm.
#pragma once

#include <span>

namespace metis::nn::vmath {

// y[i] = tanh(x[i]). y.size() == x.size(); y may be x itself.
void tanh(std::span<const double> x, std::span<double> y);

// y[i] = 1 / (1 + exp(−x[i])). y.size() == x.size(); y may be x itself.
void logistic(std::span<const double> x, std::span<double> y);

namespace detail {

// The scalar reference every level must match bit for bit.
[[nodiscard]] double tanh_reference(double x);
[[nodiscard]] double logistic_reference(double x);

}  // namespace detail

}  // namespace metis::nn::vmath
