#include "metis/tree/split_kernel.h"

#include <algorithm>

#include "metis/util/isa.h"

namespace metis::tree::detail {
namespace {

// metis-lint: begin-deterministic — the split search: every lane runs the
// scalar scan's operations in the scalar scan's order (split_kernel.h),
// so the chosen cut is a pure function of the node's rows.
// metis-lint: begin-hot-path

// GCC/Clang vector extension. Each set runs on its native width V: v8df
// (one zmm register) in the avx512f set, v4df in the avx2 set and v2df
// (SSE2) in the generic one. A side is kSplitLanes / kLanes<V> vectors in
// pass 1, and passes 2 and 3 take kLanes<V> candidates at a time, so
// every transpose shuffle is one instruction. The helpers always inline
// into the per-ISA entry points, so no vector argument crosses a call
// (-Wno-psabi in CMakeLists.txt).
typedef double v2df __attribute__((vector_size(16), aligned(8)));
typedef double v4df __attribute__((vector_size(32), aligned(8)));
typedef double v8df __attribute__((vector_size(64), aligned(8)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

constexpr std::size_t kW = kSplitLanes - 1;  // the lane of a side's weight
constexpr std::size_t kChunk = 64;           // stored candidates at most

// Row c: 1.0 in class lane c and in the W lane.
alignas(64) constexpr double kOneHot[kKernelClasses][kSplitLanes] = {
    {1, 0, 0, 0, 0, 0, 0, 1}, {0, 1, 0, 0, 0, 0, 0, 1},
    {0, 0, 1, 0, 0, 0, 0, 1}, {0, 0, 0, 1, 0, 0, 0, 1},
    {0, 0, 0, 0, 1, 0, 0, 1}, {0, 0, 0, 0, 0, 1, 0, 1},
    {0, 0, 0, 0, 0, 0, 1, 1}};

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

// In-place L x L transposes (L = the lanes of V): r[j], lane x becomes
// r[x], lane j.
__attribute__((always_inline)) inline void transpose(v2df (&r)[2]) {
  const v2df t = __builtin_shufflevector(r[0], r[1], 0, 2);
  r[1] = __builtin_shufflevector(r[0], r[1], 1, 3);
  r[0] = t;
}
__attribute__((always_inline)) inline void transpose(v4df (&r)[4]) {
  const v4df t0 = __builtin_shufflevector(r[0], r[1], 0, 4, 2, 6);
  const v4df t1 = __builtin_shufflevector(r[0], r[1], 1, 5, 3, 7);
  const v4df t2 = __builtin_shufflevector(r[2], r[3], 0, 4, 2, 6);
  const v4df t3 = __builtin_shufflevector(r[2], r[3], 1, 5, 3, 7);
  r[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  r[1] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  r[2] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  r[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}
__attribute__((always_inline)) inline void transpose(v8df (&r)[8]) {
  v8df t[8], u[8];
  for (std::size_t j = 0; j < 8; j += 2) {
    t[j] = __builtin_shufflevector(r[j], r[j + 1], 0, 8, 2, 10, 4, 12, 6, 14);
    t[j + 1] =
        __builtin_shufflevector(r[j], r[j + 1], 1, 9, 3, 11, 5, 13, 7, 15);
  }
  for (std::size_t j = 0; j < 8; j += 4) {
    for (std::size_t h = 0; h < 2; ++h) {
      u[j + h] = __builtin_shufflevector(t[j + h], t[j + h + 2], 0, 1, 8, 9, 4,
                                         5, 12, 13);
      u[j + h + 2] = __builtin_shufflevector(t[j + h], t[j + h + 2], 2, 3, 10,
                                             11, 6, 7, 14, 15);
    }
  }
  for (std::size_t j = 0; j < 4; ++j) {
    r[j] = __builtin_shufflevector(u[j], u[j + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    r[j + 4] =
        __builtin_shufflevector(u[j], u[j + 4], 4, 5, 6, 7, 12, 13, 14, 15);
  }
}

// Loads the L sides stored at at[0..L) and transposes them: lane j of
// out[c] is lane c of the side at at[j].
template <class V>
__attribute__((always_inline)) inline void columns(
    const double (&sides)[kChunk][kSplitLanes], const std::size_t* at,
    V (&out)[kSplitLanes]) {
  constexpr std::size_t L = kLanes<V>;
  for (std::size_t b = 0; b < kSplitLanes; b += L) {
    V block[L];
    for (std::size_t j = 0; j < L; ++j) block[j] = load<V>(sides[at[j]] + b);
    transpose(block);
    for (std::size_t x = 0; x < L; ++x) out[b + x] = block[x];
  }
}

// Lane-wise mask ? a : b, for the all-ones/all-zeros lanes of a compare.
template <class V, class M>
__attribute__((always_inline)) inline V select(M mask, V a, V b) {
  return (V)(((M)a & mask) | ((M)b & ~mask));
}

// weight * gini of L sides, one per lane: SideStats::impurity_mass. A
// side whose weight cancelled to <= 0 has mass 0, as in the scalar code,
// and its lane divides by 1 rather than by 0.
template <class V>
__attribute__((always_inline)) inline V mass(const V (&side)[kSplitLanes]) {
  V sq = {};
  for (std::size_t c = 0; c < kKernelClasses; ++c) {
    sq = sq + side[c] * side[c];
  }
  const V w = side[kW];
  const V zero = {};
  const auto positive = w > zero;
  const V m = w * (1.0 - sq / select(positive, w * w, zero + 1.0));
  return select(positive, m, zero);
}

// Passes 2 and 3 over the first `count` stored candidates.
template <class V>
__attribute__((always_inline)) inline void best_of(
    const double (&left)[kChunk][kSplitLanes],
    const double (&right)[kChunk][kSplitLanes],
    const std::size_t (&pos)[kChunk], std::size_t count, double parent_mass,
    double& best, std::size_t& best_k) {
  constexpr std::size_t L = kLanes<V>;
  for (std::size_t g = 0; g < count; g += L) {
    // A short last group repeats its last candidate; only the first
    // `count - g` lanes are read back.
    std::size_t at[L];
    for (std::size_t j = 0; j < L; ++j) {
      at[j] = g + j < count ? g + j : count - 1;
    }
    V l[kSplitLanes], r[kSplitLanes];
    columns(left, at, l);
    columns(right, at, r);
    alignas(64) double dec[L];
    store(dec, (parent_mass - mass(l)) - mass(r));
    const std::size_t lanes = count - g < L ? count - g : L;
    for (std::size_t j = 0; j < lanes; ++j) {
      if (dec[j] > best) {
        best = dec[j];
        best_k = pos[g + j];
      }
    }
  }
}

// A side in pass 1: kSplitLanes lanes as kParts<V> native vectors.
template <class V>
constexpr std::size_t kParts = kSplitLanes / kLanes<V>;

// side += onehot[cls] * w (Sign = 1) or side -= onehot[cls] * w (Sign = -1).
template <int Sign, class V>
__attribute__((always_inline)) inline void update(V (&side)[kParts<V>],
                                                  std::uint8_t cls, double w) {
  for (std::size_t p = 0; p < kParts<V>; ++p) {
    const V d = load<V>(kOneHot[cls] + p * kLanes<V>) * w;
    side[p] = Sign > 0 ? side[p] + d : side[p] - d;
  }
}

template <class V>
__attribute__((always_inline)) inline void store_side(
    double* out, const V (&side)[kParts<V>]) {
  for (std::size_t p = 0; p < kParts<V>; ++p) {
    store(out + p * kLanes<V>, side[p]);
  }
}

template <class V>
__attribute__((always_inline)) inline std::size_t scan_kernel(
    const SplitScan& s, double& best) {
  // Entry `stored` is written on every row, so entries [0, stored) are
  // always written before best_of or the move to the front reads them.
  alignas(64) double left[kChunk][kSplitLanes];
  alignas(64) double right[kChunk][kSplitLanes];
  std::size_t pos[kChunk];
  const std::size_t first = s.lo + s.min_leaf - 1;  // left count >= min_leaf
  const std::size_t last = s.hi - 1 - s.min_leaf;   // right count >= min_leaf
  V l[kParts<V>], r[kParts<V>];
  for (std::size_t p = 0; p < kParts<V>; ++p) {
    l[p] = V{};
    r[p] = load<V>(s.node + p * kLanes<V>);
  }
  std::size_t k = s.lo;
  for (; k < first; ++k) {
    const std::uint32_t i = s.sorted[k];
    update<1>(l, s.cls[i], s.w[i]);
    update<-1>(r, s.cls[i], s.w[i]);
  }
  std::size_t best_k = kNoCut;
  std::size_t stored = 0;
  double v = s.col[s.sorted[k]];
  for (;;) {
    // A segment stores at most one candidate per row and fits the buffer,
    // so its loop has no branch on the data.
    const std::size_t end = std::min(last + 1, k + (kChunk - stored));
    for (; k < end; ++k) {
      const std::uint32_t i = s.sorted[k];
      update<1>(l, s.cls[i], s.w[i]);
      update<-1>(r, s.cls[i], s.w[i]);
      store_side(left[stored], l);
      store_side(right[stored], r);
      pos[stored] = k;
      const double next = s.col[s.sorted[k + 1]];
      // A cut needs distinct values on its two sides.
      stored += static_cast<std::size_t>(v != next);
      v = next;
    }
    const bool done = k > last;
    // Whole groups of 8 now; the rest moves to the front of the buffer.
    const std::size_t ready = done ? stored : stored - stored % 8;
    best_of<V>(left, right, pos, ready, s.parent_mass, best, best_k);
    if (done) return best_k;
    for (std::size_t j = ready; j < stored; ++j) {
      std::copy_n(left[j], kSplitLanes, left[j - ready]);
      std::copy_n(right[j], kSplitLanes, right[j - ready]);
      pos[j - ready] = pos[j];
    }
    stored -= ready;
  }
}

// ---- ISA dispatch -----------------------------------------------------------

#define METIS_SPLIT_KERNEL_SET(name, attr, V)                       \
  attr std::size_t name##_scan(const SplitScan& s, double& best) { \
    return scan_kernel<V>(s, best);                                 \
  }

METIS_SPLIT_KERNEL_SET(generic, , v2df)
#if defined(__x86_64__)
METIS_SPLIT_KERNEL_SET(avx2, __attribute__((target("avx2"))), v4df)
METIS_SPLIT_KERNEL_SET(avx512f, __attribute__((target("avx512f"))), v8df)
#endif
#undef METIS_SPLIT_KERNEL_SET

// Indexed by isa::Level; kReference has no kernel (cart.cpp's scalar
// scan runs instead).
constexpr SplitScanFn kScans[] = {
    nullptr,
    generic_scan,
#if defined(__x86_64__)
    avx2_scan,
    avx512f_scan,
#endif
};

// metis-lint: end-hot-path
// metis-lint: end-deterministic

}  // namespace

SplitScanFn split_scan() {
  return kScans[static_cast<std::size_t>(isa::active())];
}

}  // namespace metis::tree::detail
