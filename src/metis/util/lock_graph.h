// Runtime lock-order sanitizer for the util::Mutex vocabulary.
//
// Every acquisition through util::Mutex / SharedMutex (and therefore
// through MutexLock / WriterLock / SharedLock, which all route through
// them) is hooked here in debug builds. The sanitizer maintains
//
//   - a per-thread stack of currently-held locks (with the
//     std::source_location of each acquisition), and
//   - a global acquisition-order graph: one node per live lock instance
//     (instances are registered on first acquisition and unregistered by
//     the owning wrapper's destructor, so address reuse can never alias
//     two locks), one edge A -> B for every "B acquired while A held"
//     ordering ever observed, each edge annotated with the static
//     acquisition sites that first produced it.
//
// Adding an edge whose reverse path already exists means two threads
// disagree about the order of the same locks — a deadlock waiting for
// the right interleaving. The sanitizer reports it IMMEDIATELY, on the
// first inverted acquisition, whether or not the schedule would have
// deadlocked this run: both acquisition stacks (the current thread's and
// the recorded one that established the opposite order) are printed to
// stderr and the process aborts. Same-thread re-acquisition of a held
// mutex (exclusive or shared — both deadlock-prone: std::mutex re-entry
// is UB, shared re-entry livelocks against a queued writer) aborts the
// same way.
//
// Cost model: compiled out entirely in Release builds (NDEBUG) — the
// hooks vanish and util::Mutex is exactly std::mutex again. In debug
// builds the hooks are present but OFF by default: one relaxed atomic
// load per lock operation. Set METIS_LOCK_GRAPH=1 (or call
// set_enabled(true)) to turn detection on; the lock-graph CI leg runs
// the full ctest suite that way.
#pragma once

#include <cstdint>

#if !defined(NDEBUG)
#define METIS_LOCK_GRAPH_AVAILABLE 1
#else
#define METIS_LOCK_GRAPH_AVAILABLE 0
#endif

#if METIS_LOCK_GRAPH_AVAILABLE
#include <source_location>
#endif

namespace metis::util::lock_graph {

// Acquisition mode, for re-entry diagnostics and edge labels. Shared and
// exclusive acquisitions of the same SharedMutex are one node: ordering
// inversions deadlock regardless of mode once a writer queues up.
enum class Mode : std::uint8_t { kExclusive, kShared };

#if METIS_LOCK_GRAPH_AVAILABLE

// Detection toggle. Initialized from METIS_LOCK_GRAPH (=1/on enables) on
// first query; set_enabled overrides at runtime. Toggling while locks
// are held is safe — releases of untracked locks are ignored — but only
// acquisitions made while enabled are checked.
bool enabled();
void set_enabled(bool on);

// Counters for tests and the =0 no-op proof.
struct Stats {
  std::uint64_t acquisitions = 0;  // hook invocations that were tracked
  std::uint64_t nodes = 0;         // live lock instances in the graph
  std::uint64_t edges = 0;         // distinct orderings recorded
};
Stats stats();

// Drops the whole graph and this thread's held stack (test isolation;
// other threads' stacks empty out as they release).
void reset();

// Called by util::Mutex/SharedMutex. before_acquire runs BEFORE the
// underlying lock blocks, so an inversion is reported even on a schedule
// that would have deadlocked. on_try_acquired is the post-success hook
// for try_lock (a failed try_lock cannot deadlock and leaves no trace).
void before_acquire(const void* mu, Mode mode,
                    const std::source_location& site) noexcept;
void on_try_acquired(const void* mu, Mode mode,
                     const std::source_location& site) noexcept;
void on_release(const void* mu) noexcept;
// Unregisters a destroyed lock instance and its edges, so a future
// allocation at the same address starts with clean ordering history.
void on_destroy(const void* mu) noexcept;

#endif  // METIS_LOCK_GRAPH_AVAILABLE

}  // namespace metis::util::lock_graph
