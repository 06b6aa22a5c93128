// First-exception capture for fan-out workers.
//
// util::parallel_for (and through it every fan-out in the tree, the
// trace collector's per-worker blocks included) follows one protocol:
// N workers drain a shared index, the first exception wins, the rest
// stop early, and the caller rethrows after every worker has finished.
// This type is that protocol's shared state — a mutex-guarded
// std::exception_ptr plus a relaxed atomic flag workers can poll cheaply
// between iterations — annotated for the thread-safety analysis like
// every other guarded structure in the tree.
#pragma once

#include <atomic>
#include <exception>

#include "metis/util/mutex.h"

namespace metis::util {

class ExceptionSlot {
 public:
  ExceptionSlot() = default;
  ExceptionSlot(const ExceptionSlot&) = delete;
  ExceptionSlot& operator=(const ExceptionSlot&) = delete;

  // Stores std::current_exception() if this is the first failure; must be
  // called from inside a catch block. Later captures are dropped (the
  // caller rethrows exactly one error, matching the pre-refactor
  // behavior of every fan-out site).
  void capture() noexcept {
    {
      MutexLock lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    failed_.store(true, std::memory_order_relaxed);
  }

  // Cheap cooperative-cancellation poll for worker loops: true once any
  // worker captured. Relaxed — a stale false only costs one extra
  // iteration; the rethrow itself synchronizes via mu_ after the join.
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

  // Rethrows the captured exception, if any. Call after every worker has
  // been joined/drained.
  void rethrow_if_set() {
    std::exception_ptr error;
    {
      MutexLock lock(mu_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  mutable Mutex mu_;
  std::exception_ptr error_ GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
};

}  // namespace metis::util
