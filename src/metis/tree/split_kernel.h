// The classification split search of the CART builder (tree/cart.cpp):
// one feature's scan over one node's presorted rows, in vector lanes.
//
// A side of a candidate cut is one 8-lane vector: its per-class weights
// in lanes [0, classes) and its total weight W in the last lane, so the
// kernels take up to 7 classes (more take cart.cpp's scalar scan, as
// regression does). Every lane's chain is bit for bit the builder's
// scalar one, and every candidate's impurity decrease is the scalar
// formula's, so the kernels pick the same cut as the scalar scan:
//
//  - Pass 1 (sequential over the sorted rows): left += onehot[class] * w
//    and right -= onehot[class] * w. The one-hot row holds 1.0 in the
//    class lane and in the W lane, so the class and W lanes receive
//    exactly the scalar `+= w` / `-= w`; every other lane adds or
//    subtracts +0.0, which leaves a sum of positive weights unchanged.
//    The two sides after each admissible cut (distinct values on its two
//    sides, both sides at least min_samples_leaf rows) are stored.
//  - Pass 2 (8, 4 or 2 candidates at a time, the set's vector width):
//    transpose to one lane per candidate, then sq = Σ_c l_c·l_c in class
//    order, mass = W·(1 − sq/(W·W)) (0 when W <= 0) and
//    decrease = (parent_mass − left mass) − right mass. Lanes of absent
//    classes add +0.0 to sq, which changes nothing.
//  - Pass 3: the first strict maximum over the candidates, in position
//    order, against the best decrease of the features scanned before.
//
// The kernels are compiled once per instruction set (avx512f, avx2 and
// generic, in split_kernel.cpp), and split_scan() returns the one for
// isa::active() (util/isa.h); at kReference it returns null and cart.cpp
// runs its scalar scan. The file is built with -ffp-contract=off
// (CMakeLists.txt; metis-lint check 10 pins it): a fused multiply-add
// would round sq once where the recipe rounds twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace metis::tree::detail {

inline constexpr std::size_t kSplitLanes = 8;
inline constexpr std::size_t kKernelClasses = kSplitLanes - 1;

// One feature's scan over a node's rows [lo, hi) of the presorted order.
struct SplitScan {
  const std::uint32_t* sorted = nullptr;  // row ids by (value, row id)
  const double* col = nullptr;            // the feature's value by row id
  const std::uint8_t* cls = nullptr;      // class id by row id
  const double* w = nullptr;              // weight by row id
  // The node's statistics in the side layout: per-class weights
  // accumulated in row-id order, zero lanes up to W in the last lane.
  const double* node = nullptr;
  std::size_t lo = 0, hi = 0;
  std::size_t min_leaf = 1;  // >= 1, and hi - lo >= 2 * min_leaf
  double parent_mass = 0.0;
};

inline constexpr std::size_t kNoCut = std::numeric_limits<std::size_t>::max();

// If some admissible cut's decrease is greater than `best`, sets `best` to
// the first strict maximum and returns its position k: the cut lies
// between sorted[k] and sorted[k + 1]. Returns kNoCut otherwise.
using SplitScanFn = std::size_t (*)(const SplitScan& scan, double& best);

// The kernel of isa::active(), or null at isa::Level::kReference. The
// builder asks once per fit.
[[nodiscard]] SplitScanFn split_scan();

}  // namespace metis::tree::detail
