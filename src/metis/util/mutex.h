// Annotated mutex wrappers — the lock vocabulary of the codebase.
//
// Thin, zero-overhead wrappers over the std synchronization primitives
// whose operations carry Clang Thread Safety attributes
// (util/thread_annotations.h), so data members can be declared
// GUARDED_BY(mu) and the clang CI leg proves, at compile time, that every
// access happens under the right lock. std::mutex itself cannot play this
// role: its lock/unlock live in an unannotated system header, so the
// analysis would flag every correctly-locked access as a violation.
//
// The vocabulary:
//   Mutex / MutexLock          — exclusive lock + RAII scope
//   SharedMutex / SharedLock   — reader-writer lock + RAII shared scope
//                                (writers take MutexLock on it)
//   CondVar                    — condition variable over Mutex; wait() is
//                                REQUIRES(mu), callers loop on their
//                                predicate so guarded reads stay visible
//                                to the analysis (no predicate lambdas,
//                                which the analysis cannot see into)
//   ThreadRole / ScopedThreadRole
//                              — a zero-cost "capability" for data owned
//                                by one designated thread (the epoll loop
//                                thread), so loop-thread-only state is
//                                formally annotated, not just commented
//
// Debug builds additionally thread every acquisition through the
// lock-order sanitizer (util/lock_graph.h, METIS_LOCK_GRAPH=1): each
// lock/unlock below carries the caller's std::source_location and
// reports into a global acquisition-order graph that aborts on the first
// ordering inversion, printing both acquisition stacks. Release builds
// compile the hooks away entirely — the wrappers are the std primitives
// again. The defaulted source_location parameters are part of that
// contract: call sites never change across build types.
//
// metis-lint: allow-raw-mutex — this file IS the lock vocabulary; the
// raw std primitives it wraps are banned everywhere else in src/.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <source_location>

#include "metis/util/lock_graph.h"
#include "metis/util/thread_annotations.h"

#if METIS_LOCK_GRAPH_AVAILABLE
#define METIS_LOCK_GRAPH_HOOK(call) ::metis::util::lock_graph::call
#else
#define METIS_LOCK_GRAPH_HOOK(call) ((void)0)
#endif

namespace metis::util {

class CondVar;

// Exclusive mutex. Same cost as std::mutex (it is one), but annotated as
// a capability so GUARDED_BY(mu) is enforceable.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  ~Mutex() { METIS_LOCK_GRAPH_HOOK(on_destroy(this)); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(const std::source_location& site =
                std::source_location::current()) ACQUIRE() {
    (void)site;
    // Checked BEFORE blocking, so an inversion reports even on the
    // schedule that would have deadlocked.
    METIS_LOCK_GRAPH_HOOK(
        before_acquire(this, lock_graph::Mode::kExclusive, site));
    mu_.lock();
  }
  void unlock() RELEASE() {
    mu_.unlock();
    METIS_LOCK_GRAPH_HOOK(on_release(this));
  }
  [[nodiscard]] bool try_lock(const std::source_location& site =
                                  std::source_location::current())
      TRY_ACQUIRE(true) {
    (void)site;
    const bool got = mu_.try_lock();
    if (got) {
      METIS_LOCK_GRAPH_HOOK(
          on_try_acquired(this, lock_graph::Mode::kExclusive, site));
    }
    return got;
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII exclusive scope over a Mutex (the std::lock_guard of this
// vocabulary, visible to the analysis).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu, const std::source_location& site =
                                    std::source_location::current())
      ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Reader-writer mutex. Shared holders may read GUARDED_BY data; writers
// lock exclusively (MutexLock works via lock/unlock).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  ~SharedMutex() { METIS_LOCK_GRAPH_HOOK(on_destroy(this)); }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock(const std::source_location& site =
                std::source_location::current()) ACQUIRE() {
    (void)site;
    METIS_LOCK_GRAPH_HOOK(
        before_acquire(this, lock_graph::Mode::kExclusive, site));
    mu_.lock();
  }
  void unlock() RELEASE() {
    mu_.unlock();
    METIS_LOCK_GRAPH_HOOK(on_release(this));
  }
  void lock_shared(const std::source_location& site =
                       std::source_location::current()) ACQUIRE_SHARED() {
    (void)site;
    METIS_LOCK_GRAPH_HOOK(
        before_acquire(this, lock_graph::Mode::kShared, site));
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
    METIS_LOCK_GRAPH_HOOK(on_release(this));
  }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive scope over a SharedMutex (writer side).
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu, const std::source_location& site =
                                           std::source_location::current())
      ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
  ~WriterLock() RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared scope over a SharedMutex (reader side). The destructor is
// RELEASE_GENERIC: the analysis tracks the mode from the constructor.
class SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu, const std::source_location& site =
                                           std::source_location::current())
      ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared(site);
  }
  ~SharedLock() RELEASE_GENERIC() { mu_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to util::Mutex. No predicate overloads on
// purpose: a predicate lambda is a separate function to the thread-safety
// analysis, so its guarded reads would be flagged (or worse, silently
// unchecked). Callers write the canonical loop instead, which the
// analysis fully understands:
//
//   MutexLock lock(mu_);
//   while (!condition_over_guarded_state) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` and blocks; reacquired before returning.
  // Spurious wakeups happen — always loop on the predicate.
  void wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock wrapper without unlocking: ownership stays with the
    // caller's MutexLock exactly as the annotation promises.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  // Timed wait; returns false on timeout. Same adopt/release discipline
  // as wait() — ownership stays with the caller's MutexLock — and same
  // rule: loop on the predicate, a true return only means "woken".
  template <class Rep, class Period>
  bool wait_for(Mutex& mu,
                const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const auto status = cv_.wait_for(native, timeout);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// A "thread role": a capability with no runtime state, for data that is
// owned by one designated thread rather than by a lock — e.g. the epoll
// loop thread's connection table in serve::Server. Entry points that run
// on the owning thread acquire the role (a no-op at runtime); functions
// touching the data are REQUIRES(role); the clang leg then rejects any
// new code path that reaches loop-thread-only state without being rooted
// in the loop (or in a join-synchronized teardown, which may legitimately
// assume the role — see Server::stop).
class CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void acquire() ACQUIRE() {}
  void release() RELEASE() {}
};

class SCOPED_CAPABILITY ScopedThreadRole {
 public:
  explicit ScopedThreadRole(ThreadRole& role) ACQUIRE(role) : role_(role) {
    role_.acquire();
  }
  ~ScopedThreadRole() RELEASE() { role_.release(); }

  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;

 private:
  ThreadRole& role_;
};

}  // namespace metis::util
