// Clang Thread Safety Analysis attribute macros — the compile-time half of
// this repository's concurrency contract.
//
// Every mutex-guarded structure in the tree is annotated with these
// (GUARDED_BY on data, REQUIRES on functions that expect a capability to
// be held, CAPABILITY/SCOPED_CAPABILITY on the util::Mutex wrappers), and
// a dedicated CI job compiles the whole tree with
//
//   clang++ -Wthread-safety -Werror=thread-safety
//
// so an unguarded access — today's, or one introduced by a future
// refactor such as the cross-job batching engine — fails the BUILD, not
// just a TSan run that happened to hit the racy schedule. On GCC (which
// has no thread-safety analysis) every macro expands to nothing, so the
// annotations cost zero and the tier-1 build is unaffected.
//
// The macro set mirrors the canonical one from the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); see
// util/mutex.h for the annotated Mutex/SharedMutex/CondVar wrappers the
// rest of the codebase locks through.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define METIS_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define METIS_THREAD_ANNOTATION__(x)  // no-op on GCC and other compilers
#endif

// Type attributes ------------------------------------------------------------

// Marks a class as a capability (a lock). The string names the kind of
// capability in diagnostics ("mutex", "shared_mutex", "role").
#define CAPABILITY(x) METIS_THREAD_ANNOTATION__(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY METIS_THREAD_ANNOTATION__(scoped_lockable)

// Data-member attributes -----------------------------------------------------

// Reads/writes of the member require holding `x` (exclusively for
// writes, at least shared for reads).
#define GUARDED_BY(x) METIS_THREAD_ANNOTATION__(guarded_by(x))

// Like GUARDED_BY for the data *pointed to* by a pointer/smart pointer.
#define PT_GUARDED_BY(x) METIS_THREAD_ANNOTATION__(pt_guarded_by(x))

// Lock-ordering declarations (deadlock documentation the analysis checks
// when -Wthread-safety-beta is enabled; harmless otherwise).
#define ACQUIRED_BEFORE(...) \
  METIS_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  METIS_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

// Function attributes --------------------------------------------------------

// The function must be called with the listed capabilities held
// (exclusively / at least shared); it does not acquire or release them.
#define REQUIRES(...) \
  METIS_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  METIS_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

// The function acquires the capability and holds it past return.
#define ACQUIRE(...) \
  METIS_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  METIS_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

// The function releases a capability the caller held on entry. The
// _GENERIC form releases either mode — it is what a scoped lock's
// destructor wants when the object may hold shared OR exclusive.
#define RELEASE(...) \
  METIS_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  METIS_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  METIS_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

// try_lock-style functions: acquire iff the return value equals the first
// argument.
#define TRY_ACQUIRE(...) \
  METIS_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  METIS_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

// The function may only be called when the capability is NOT held.
#define EXCLUDES(...) METIS_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Runtime assertion that the capability is held (tells the analysis so
// without acquiring).
#define ASSERT_CAPABILITY(x) \
  METIS_THREAD_ANNOTATION__(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  METIS_THREAD_ANNOTATION__(assert_shared_capability(x))

// The function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) METIS_THREAD_ANNOTATION__(lock_returned(x))
