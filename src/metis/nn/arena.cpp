#include "metis/nn/arena.h"

#include <new>
#include <unordered_map>
#include <vector>

namespace metis::nn::arena {
namespace {

// Set once the thread's pool has been destroyed (thread exit, or main's
// thread_local teardown). A trivially destructible flag outlives the
// pool, so allocations from static-duration objects that die later —
// e.g. a global net whose Tensors free during static destruction — can
// detect the dead pool and fall back to plain new/delete instead of
// touching an object whose lifetime has ended.
thread_local bool t_pool_destroyed = false;

// Retention bound: a long-lived scope (e.g. serve's per-job scope) would
// otherwise pin every distinct buffer size freed under it until the
// scope exits. Beyond this many parked bytes per thread, freed blocks
// are released instead — hot shapes keep recycling, cold ones cannot
// accumulate more than the cap.
constexpr std::size_t kMaxPooledBytes = std::size_t{64} << 20;

// Node blocks are small and uniform; cap the parked count so one huge
// tape cannot pin unbounded metadata memory under a long-lived scope.
constexpr std::size_t kMaxPooledNodeBlocks = std::size_t{1} << 18;

// One per thread: the size-bucketed tensor cache, the uniform-block node
// free list, and this thread's counters. Blocks parked here all came from
// ::operator new, so draining (at outermost-scope exit or thread exit)
// releases them the ordinary way.
struct ThreadCache {
  // metis-lint: allow(iterated only by drain(), which frees every block;
  // free() order is invisible to any output, so hashed order is fine)
  std::unordered_map<std::size_t, std::vector<void*>> buckets;
  std::size_t pooled_bytes = 0;
  int depth = 0;
  Stats stats;

  // Node pool: every tape node is one allocate_shared block of a single
  // size, so a flat LIFO is both sufficient and faster than the bucket
  // map. The first block seen fixes the slab size; anything else (another
  // translation unit's Node layout would be a bug, but stay safe) goes
  // straight to operator new/delete.
  std::vector<void*> node_free;
  std::size_t node_block_size = 0;
  NodeStats node_stats;

  void drain() {
    for (auto& [bytes, blocks] : buckets) {
      for (void* p : blocks) ::operator delete(p);
    }
    buckets.clear();
    pooled_bytes = 0;
    stats.pooled = 0;
    for (void* p : node_free) ::operator delete(p);
    node_free.clear();
    node_stats.pooled = 0;
  }

  ~ThreadCache() {
    drain();
    t_pool_destroyed = true;
  }
};

ThreadCache& pool() {
  thread_local ThreadCache p;
  return p;
}

}  // namespace

Stats stats() { return t_pool_destroyed ? Stats{} : pool().stats; }

void reset_stats() {
  if (t_pool_destroyed) return;
  Stats& s = pool().stats;
  const std::uint64_t pooled = s.pooled;  // blocks in flight stay counted
  s = Stats{};
  s.pooled = pooled;
}

NodeStats node_stats() {
  return t_pool_destroyed ? NodeStats{} : pool().node_stats;
}

void reset_node_stats() {
  if (t_pool_destroyed) return;
  NodeStats& s = pool().node_stats;
  const std::uint64_t pooled = s.pooled;  // parked blocks stay accounted
  s = NodeStats{};
  s.pooled = pooled;
}

void* node_allocate(std::size_t bytes) {
  if (t_pool_destroyed) return ::operator new(bytes);
  ThreadCache& p = pool();
  if (p.depth > 0 && bytes == p.node_block_size && !p.node_free.empty()) {
    void* block = p.node_free.back();
    p.node_free.pop_back();
    ++p.node_stats.reuses;
    --p.node_stats.pooled;
    return block;
  }
  ++p.node_stats.fresh_allocs;
  return ::operator new(bytes);
}

void node_deallocate(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (t_pool_destroyed) {
    ::operator delete(block);
    return;
  }
  ThreadCache& p = pool();
  if (p.node_block_size == 0) p.node_block_size = bytes;
  if (p.depth > 0 && bytes == p.node_block_size &&
      p.node_free.size() < kMaxPooledNodeBlocks) {
    // Parking can allocate (free-list growth); under memory pressure the
    // only correct fallback inside a noexcept free path is releasing the
    // block outright.
    try {
      p.node_free.push_back(block);
      ++p.node_stats.pooled;
      return;
    } catch (...) {
    }
  }
  ::operator delete(block);
}

Scope::Scope() : active_(!t_pool_destroyed) {
  if (active_) ++pool().depth;
}

Scope::~Scope() {
  if (!active_ || t_pool_destroyed) return;
  ThreadCache& p = pool();
  if (--p.depth == 0) p.drain();
}

void* allocate(std::size_t bytes) {
  if (t_pool_destroyed) return ::operator new(bytes);
  ThreadCache& p = pool();
  if (p.depth > 0) {
    auto it = p.buckets.find(bytes);
    if (it != p.buckets.end() && !it->second.empty()) {
      void* block = it->second.back();
      it->second.pop_back();
      p.pooled_bytes -= bytes;
      ++p.stats.reuses;
      --p.stats.pooled;
      return block;
    }
  }
  ++p.stats.fresh_allocs;
  p.stats.bytes_fresh += bytes;
  return ::operator new(bytes);
}

void deallocate(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (t_pool_destroyed) {
    ::operator delete(block);
    return;
  }
  ThreadCache& p = pool();
  if (p.depth > 0 && p.pooled_bytes + bytes <= kMaxPooledBytes) {
    // Parking can itself allocate (bucket-vector growth, map node); if
    // that throws under memory pressure, releasing the block outright is
    // the only correct fallback inside a noexcept free path.
    try {
      p.buckets[bytes].push_back(block);
      p.pooled_bytes += bytes;
      ++p.stats.pooled;
      return;
    } catch (...) {
    }
  }
  ::operator delete(block);
}

}  // namespace metis::nn::arena
