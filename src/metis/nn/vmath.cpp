#include "metis/nn/vmath.h"

#include <cstdint>

#include "metis/util/check.h"
#include "metis/util/isa.h"

namespace metis::nn::vmath {
namespace {

// metis-lint: begin-deterministic — the activation kernels: every kernel
// set runs the scalar reference's operations in the scalar reference's
// order (vmath.h), so an activation is a pure function of its input.
// metis-lint: begin-hot-path

// GCC/Clang vector extension, as in tree/split_kernel.cpp: each set runs
// on its native width, v8df (one zmm register) in the avx512f set, v4df
// in the avx2 set and v2df (SSE2) in the generic one. The same templates
// instantiated on plain double are the scalar reference. The helpers
// always inline into the per-ISA entry points, so no vector argument
// crosses a call (-Wno-psabi in CMakeLists.txt). Vectors move to and from
// memory only through load/store's memcpy, so they keep their natural
// alignment.
typedef double v2df __attribute__((vector_size(16)));
typedef double v4df __attribute__((vector_size(32)));
typedef double v8df __attribute__((vector_size(64)));
typedef std::uint64_t v2du __attribute__((vector_size(16)));
typedef std::uint64_t v4du __attribute__((vector_size(32)));
typedef std::uint64_t v8du __attribute__((vector_size(64)));

// The unsigned 64-bit lanes that hold V's bit patterns.
template <class V>
struct BitsOf;
template <>
struct BitsOf<double> {
  using type = std::uint64_t;
};
template <>
struct BitsOf<v2df> {
  using type = v2du;
};
template <>
struct BitsOf<v4df> {
  using type = v4du;
};
template <>
struct BitsOf<v8df> {
  using type = v8du;
};
template <class V>
using Bits = typename BitsOf<V>::type;

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

template <class V>
__attribute__((always_inline)) inline Bits<V> bits(V v) {
  return __builtin_bit_cast(Bits<V>, v);
}
template <class V>
__attribute__((always_inline)) inline V from_bits(Bits<V> b) {
  return __builtin_bit_cast(V, b);
}

// Lane-wise m ? a : b. A vector compare yields all-ones/all-zeros lanes,
// a scalar one a bool.
template <class V, class M>
__attribute__((always_inline)) inline V select(M m, V a, V b) {
  const auto mask = (Bits<V>)m;
  return from_bits<V>((bits(a) & mask) | (bits(b) & ~mask));
}
__attribute__((always_inline)) inline double select(bool m, double a,
                                                    double b) {
  return m ? a : b;
}

// c in every lane (0 + c is c for every c but −0, which no caller splats).
template <class V>
__attribute__((always_inline)) inline V splat(double c) {
  return V{} + c;
}

template <class V>
__attribute__((always_inline)) inline V load(const double* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
template <class V>
__attribute__((always_inline)) inline void store(double* p, V v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
constexpr std::uint64_t kExpBias = 1023;
constexpr double kShift = 0x1.8p52;  // adding it rounds to an integer
constexpr double kInvLn2 = 0x1.71547652b82fep0;
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 32 significant bits, so k·kLn2Hi is
// exact for |k| < 2²¹ and t − k·kLn2Hi is exact near the reduction point.
constexpr double kLn2Hi = 0x1.62e42feep-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// 2|x| at and past which tanh rounds to ±1 (it does from 2|x| ≈ 38.1 on).
constexpr double kTanhClamp = 44.0;
// |x| past which exp(−|x|) rounds to 0 (it does from |x| ≈ 745.2 on).
constexpr double kLogisticClamp = 746.0;
// exp(−|x|) is scaled in two steps, by 2^(k + kSplit) (a normal number for
// every k in [−1077, 0]) and then by 2^−kSplit, so a subnormal result is
// rounded once.
constexpr std::uint64_t kSplit = 540;
constexpr double kUnsplit = 0x1p-540;

// (k, expm1(r)) for t = k·ln 2 + r, |r| <= ln 2 / 2 (|t| < 2⁵¹). kb holds k
// in two's complement.
template <class V>
struct Reduced {
  Bits<V> kb;
  V p;
};

template <class V>
__attribute__((always_inline)) inline Reduced<V> reduce_expm1(V t) {
  const V kd = t * kInvLn2 + kShift;
  const Bits<V> kb = bits(kd) - bits(splat<V>(kShift));
  const V k = kd - kShift;
  const V r = (t - k * kLn2Hi) - k * kLn2Lo;
  // expm1(r) = r + r²·(1/2! + r·(1/3! + ... + r/13!)); the truncation is
  // below 2⁻⁵⁶ relative for |r| <= ln 2 / 2.
  V q = splat<V>(1.0 / 6227020800.0);  // 1/13!
  q = q * r + 1.0 / 479001600.0;
  q = q * r + 1.0 / 39916800.0;
  q = q * r + 1.0 / 3628800.0;
  q = q * r + 1.0 / 362880.0;
  q = q * r + 1.0 / 40320.0;
  q = q * r + 1.0 / 5040.0;
  q = q * r + 1.0 / 720.0;
  q = q * r + 1.0 / 120.0;
  q = q * r + 1.0 / 24.0;
  q = q * r + 1.0 / 6.0;
  q = q * r + 0.5;
  return {kb, r + (r * r) * q};
}

template <class V>
__attribute__((always_inline)) inline V tanh_lanes(V x) {
  const Bits<V> xb = bits(x);
  V t = from_bits<V>(xb & ~kSignBit);
  t = t + t;
  t = select(t > kTanhClamp, splat<V>(kTanhClamp), t);  // NaN stays NaN
  const Reduced<V> e = reduce_expm1(t);
  // expm1(t) = 2ᵏ·p + (2ᵏ − 1), with k in [0, 64].
  const V two_k = from_bits<V>((e.kb + kExpBias) << 52);
  const V em1 = two_k * e.p + (two_k - 1.0);
  const V y = from_bits<V>(bits(em1 / (em1 + 2.0)) | (xb & kSignBit));
  return select(x == x, y, x);
}

template <class V>
__attribute__((always_inline)) inline V logistic_lanes(V x) {
  V t = from_bits<V>(bits(x) & ~kSignBit);
  t = select(t > kLogisticClamp, splat<V>(kLogisticClamp), t);
  const Reduced<V> e = reduce_expm1(-t);
  // exp(−t) = (1 + p)·2ᵏ, with k in [−1077, 0].
  const V scale = from_bits<V>((e.kb + (kExpBias + kSplit)) << 52);
  const V ex = ((1.0 + e.p) * scale) * kUnsplit;
  const V y = select(x < 0.0, ex, splat<V>(1.0)) / (1.0 + ex);
  return select(x == x, y, x);
}

template <class V>
__attribute__((always_inline)) inline void tanh_kernel(const double* x,
                                                       double* y,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    store(y + i, tanh_lanes(load<V>(x + i)));
  }
  for (; i < n; ++i) y[i] = tanh_lanes(x[i]);
}

template <class V>
__attribute__((always_inline)) inline void logistic_kernel(const double* x,
                                                           double* y,
                                                           std::size_t n) {
  std::size_t i = 0;
  for (; i + kLanes<V> <= n; i += kLanes<V>) {
    store(y + i, logistic_lanes(load<V>(x + i)));
  }
  for (; i < n; ++i) y[i] = logistic_lanes(x[i]);
}

// ---- ISA dispatch -----------------------------------------------------------
// One set per isa::Level; kReference runs the scalar instance over the
// span.

struct VmathSet {
  void (*tanh)(const double* x, double* y, std::size_t n);
  void (*logistic)(const double* x, double* y, std::size_t n);
};

#define METIS_VMATH_KERNEL_SET(name, attr, V)                               \
  attr void name##_tanh(const double* x, double* y, std::size_t n) {       \
    tanh_kernel<V>(x, y, n);                                                \
  }                                                                         \
  attr void name##_logistic(const double* x, double* y, std::size_t n) {   \
    logistic_kernel<V>(x, y, n);                                            \
  }

METIS_VMATH_KERNEL_SET(reference, , double)
METIS_VMATH_KERNEL_SET(generic, , v2df)
#if defined(__x86_64__)
METIS_VMATH_KERNEL_SET(avx2, __attribute__((target("avx2"))), v4df)
METIS_VMATH_KERNEL_SET(avx512f, __attribute__((target("avx512f"))), v8df)
#endif
#undef METIS_VMATH_KERNEL_SET

// Indexed by isa::Level.
constexpr VmathSet kKernels[] = {
    {reference_tanh, reference_logistic},
    {generic_tanh, generic_logistic},
#if defined(__x86_64__)
    {avx2_tanh, avx2_logistic},
    {avx512f_tanh, avx512f_logistic},
#endif
};

// metis-lint: end-hot-path
// metis-lint: end-deterministic

const VmathSet& kernels() {
  return kKernels[static_cast<std::size_t>(isa::active())];
}

}  // namespace

void tanh(std::span<const double> x, std::span<double> y) {
  MET_CHECK(x.size() == y.size());
  kernels().tanh(x.data(), y.data(), x.size());
}

void logistic(std::span<const double> x, std::span<double> y) {
  MET_CHECK(x.size() == y.size());
  kernels().logistic(x.data(), y.data(), x.size());
}

double detail::tanh_reference(double x) { return tanh_lanes(x); }

double detail::logistic_reference(double x) { return logistic_lanes(x); }

}  // namespace metis::nn::vmath
