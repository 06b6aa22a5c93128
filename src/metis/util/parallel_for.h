// Index-sharded parallel loop over a transient util::ThreadPool.
//
// Runs fn(0) .. fn(count - 1), draining indices from a shared atomic
// counter across `workers` pool threads (inline on the caller when
// workers <= 1 or there is nothing to share). Callers get deterministic
// results by making fn(i) a pure function of i that writes only slot i of
// a pre-sized output — the LIME/LEMNA per-cluster surrogate fits do
// exactly that, so their results are identical at any worker count.
// The first exception thrown by any fn is rethrown on the caller after
// every worker finishes.
#pragma once

#include <cstddef>
#include <functional>

namespace metis::util {

void parallel_for(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)>& fn);

}  // namespace metis::util
