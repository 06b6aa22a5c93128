// Per-thread tensor-buffer arena — a size-bucketed free-list cache behind
// every Tensor's storage — plus the autodiff node pool, a uniform-block
// free list behind every tape Node (value holder + shared_ptr control
// block, see nn/autodiff.h).
//
// The interpretation hot paths (trace collection, mask optimization, the
// serve workers) build and tear down the same tensor shapes thousands of
// times per second. Inside an arena::Scope, a freed tensor buffer is
// parked in a thread-local pool instead of returning to malloc, and the
// next allocation of the same size pops it back — so a steady-state loop
// performs zero fresh allocations after its first iteration
// (tests/alloc_test.cpp enforces this for trace collection, and for
// the §4.2 mask-optimization step including its tape metadata).
//
// Design invariants:
//  - The pool is purely a recycling cache: every block is obtained from
//    ::operator new and eventually released with ::operator delete, so
//    buffers may freely cross scope boundaries in either direction (a
//    tensor allocated inside a scope may die after it, and vice versa).
//  - The pool, its depth counter, and the stats are all thread_local —
//    no locks, no sharing; each collection/serve worker recycles its own
//    buffers. This is the arena's entire concurrency contract: there is
//    deliberately nothing here for the clang thread-safety analysis to
//    annotate (there is no shared state at all), and it must stay that
//    way — a mutex in the allocator would sit on every tensor hot path.
//  - Scopes nest: the cache drains only when the outermost scope exits
//    (a test or bench can hold an outer scope to keep buffers warm
//    across whole collection rounds). Parked bytes are capped per
//    thread, so a long-lived scope cannot pin more than a bounded
//    amount of cold buffers while hot shapes keep recycling.
//  - Recycled memory is always fully overwritten by the tensor
//    constructors before use, so results are bitwise identical inside a
//    scope or outside one (an unscoped thread never recycles; the
//    collection and interpretation oracles in tests/ run unscoped and pin
//    the pooled hot paths against them).
//  - There is no opt-out: both pools are always on inside a Scope.
#pragma once

#include <cstddef>
#include <cstdint>

namespace metis::nn::arena {

struct Stats {
  std::uint64_t fresh_allocs = 0;  // buffers obtained from ::operator new
  std::uint64_t reuses = 0;        // buffers recycled from the pool
  std::uint64_t bytes_fresh = 0;   // total bytes of fresh allocations
  std::uint64_t pooled = 0;        // blocks currently parked in the pool
};

// Calling thread's counters. fresh_allocs counts every tensor-buffer
// allocation made on this thread, inside a scope or not, so a test can
// assert "no fresh allocations across this region" by diffing snapshots.
[[nodiscard]] Stats stats();
void reset_stats();

// RAII opt-in: tensor buffers and tape-node blocks freed on this thread
// while a Scope is active are recycled instead of released. Nests;
// drains at outermost exit.
class Scope {
 public:
  Scope();
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  // False only for a scope opened after the thread's pool was destroyed
  // (thread_local teardown), which must not touch the dead pool on exit.
  bool active_;
};

// Allocation hooks used by Allocator<T> below (and by tests).
[[nodiscard]] void* allocate(std::size_t bytes);
void deallocate(void* p, std::size_t bytes) noexcept;

// ---- autodiff node pool -----------------------------------------------------
//
// Every tape node is one fixed-size block (std::allocate_shared fuses the
// Node and its control block), so the pool is a single free list instead
// of size buckets: pop on allocate, park on deallocate, same
// scope-nesting/drain rules as the tensor pool above. Like tensor
// buffers, node blocks are plain operator-new memory and may cross scope
// and thread boundaries in either direction (a parameter node built
// inside a job scope can die with its model on another thread).

struct NodeStats {
  std::uint64_t fresh_allocs = 0;  // node blocks obtained from operator new
  std::uint64_t reuses = 0;        // node blocks recycled from the pool
  std::uint64_t pooled = 0;        // blocks currently parked
};

// Calling thread's node-pool counters (same snapshot/diff contract as
// stats() above).
[[nodiscard]] NodeStats node_stats();
void reset_node_stats();

// Allocation hooks used by NodeAllocator<T> below. Blocks whose size does
// not match the pool's (first-seen) block size bypass the free list.
[[nodiscard]] void* node_allocate(std::size_t bytes);
void node_deallocate(void* p, std::size_t bytes) noexcept;

// Minimal std-compatible allocator routing through the thread's node
// pool; handed to std::allocate_shared by nn::make_node & co. Stateless
// and always-equal.
template <typename T>
struct NodeAllocator {
  using value_type = T;

  NodeAllocator() noexcept = default;
  template <typename U>
  NodeAllocator(const NodeAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena::node_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena::node_deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const NodeAllocator&, const NodeAllocator&) {
    return true;
  }
  friend bool operator!=(const NodeAllocator&, const NodeAllocator&) {
    return false;
  }
};

// Minimal std-compatible allocator routing through the thread's arena.
// Stateless and always-equal, so container moves/swaps behave exactly
// like std::allocator's.
template <typename T>
struct Allocator {
  using value_type = T;

  Allocator() noexcept = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena::deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const Allocator&, const Allocator&) { return true; }
  friend bool operator!=(const Allocator&, const Allocator&) { return false; }
};

}  // namespace metis::nn::arena
