// Size-class free-list pool for the simulator's hot-path allocations:
// GroupData frames, ack vectors, order assignments, batch frames, and the
// transport's per-segment wrappers. The discrete-event simulator is
// single-threaded and churns through millions of short-lived protocol
// objects per run; recycling their blocks through per-size free lists turns
// almost every allocation on the steady-state path into a pointer pop.
//
// The pool hands out raw blocks rounded up to 64-byte granules and keeps one
// LIFO free list per granule class (LIFO so a freshly freed — and therefore
// cache-hot — block is the next one reused). Blocks above the largest class
// fall through to operator new. `MakePooled<T>(...)` is the drop-in
// replacement for std::make_shared on the hot paths: it allocate_shared's
// through a PoolAllocator so the control block and the object share one
// pooled allocation, exactly like make_shared shares one heap allocation.
//
// Sanitizer escape hatch: recycling defeats AddressSanitizer's
// use-after-free detection (a freed block is immediately valid again), so
// under ASan every call forwards straight to operator new/delete and the
// pool is a pure pass-through.

#ifndef REPRO_SRC_MEM_POOL_H_
#define REPRO_SRC_MEM_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mem {

struct PoolStats {
  uint64_t allocations = 0;  // total Allocate calls
  uint64_t pool_hits = 0;    // served by popping a free list
  uint64_t fresh_blocks = 0; // served by operator new (cold or oversized)
  uint64_t frees = 0;        // total Deallocate calls
  uint64_t live_blocks = 0;  // currently allocated, not yet returned
  uint64_t free_bytes = 0;   // bytes parked across all free lists
};

class SizeClassPool {
 public:
  // Process-global instance. The simulator is single-threaded; the pool is
  // deliberately lock-free-by-absence-of-threads.
  static SizeClassPool& Instance();

  SizeClassPool(const SizeClassPool&) = delete;
  SizeClassPool& operator=(const SizeClassPool&) = delete;

  void* Allocate(std::size_t bytes);
  void Deallocate(void* p, std::size_t bytes) noexcept;

  // Drops every parked block back to the system allocator.
  void TrimFreeLists();

  const PoolStats& stats() const { return stats_; }

  // True when pooling is disabled (ASan build) and every call forwards to
  // operator new/delete.
  static bool passthrough();

  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooledBytes = 1024;

 private:
  SizeClassPool() = default;
  ~SizeClassPool();

  static constexpr std::size_t kNumClasses = kMaxPooledBytes / kGranule;

  // Class index for a pooled size (bytes must be in (0, kMaxPooledBytes]).
  static std::size_t ClassFor(std::size_t bytes) {
    return (bytes + kGranule - 1) / kGranule - 1;
  }
  static std::size_t ClassBytes(std::size_t cls) { return (cls + 1) * kGranule; }

  std::vector<void*> free_lists_[kNumClasses];
  PoolStats stats_;
};

// std-compatible allocator over the global pool; lets allocate_shared fuse
// the control block and payload into one pooled block.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(SizeClassPool::Instance().Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    SizeClassPool::Instance().Deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

// make_shared, but the single fused allocation comes from (and returns to)
// the size-class pool.
template <typename T, typename... Args>
std::shared_ptr<T> MakePooled(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{}, std::forward<Args>(args)...);
}

}  // namespace mem

#endif  // REPRO_SRC_MEM_POOL_H_
