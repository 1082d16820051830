#include "src/mem/pool.h"

namespace mem {

namespace {

// ASan's whole point is catching lifetime bugs; recycling blocks would mask
// them, so pooled allocation is compiled out under the sanitizer.
constexpr bool kAsanBuild =
#if defined(__SANITIZE_ADDRESS__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

}  // namespace

bool SizeClassPool::passthrough() { return kAsanBuild; }

SizeClassPool& SizeClassPool::Instance() {
  static SizeClassPool* pool = new SizeClassPool();  // never destroyed: blocks
  return *pool;  // may be referenced by statics torn down after main
}

SizeClassPool::~SizeClassPool() { TrimFreeLists(); }

void* SizeClassPool::Allocate(std::size_t bytes) {
  ++stats_.allocations;
  ++stats_.live_blocks;
  if (passthrough() || bytes == 0 || bytes > kMaxPooledBytes) {
    ++stats_.fresh_blocks;
    return ::operator new(bytes);
  }
  const std::size_t cls = ClassFor(bytes);
  std::vector<void*>& list = free_lists_[cls];
  if (!list.empty()) {
    void* block = list.back();
    list.pop_back();
    ++stats_.pool_hits;
    stats_.free_bytes -= ClassBytes(cls);
    return block;
  }
  ++stats_.fresh_blocks;
  return ::operator new(ClassBytes(cls));
}

void SizeClassPool::Deallocate(void* p, std::size_t bytes) noexcept {
  ++stats_.frees;
  --stats_.live_blocks;
  if (passthrough() || bytes == 0 || bytes > kMaxPooledBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t cls = ClassFor(bytes);
  free_lists_[cls].push_back(p);
  stats_.free_bytes += ClassBytes(cls);
}

void SizeClassPool::TrimFreeLists() {
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    for (void* block : free_lists_[cls]) {
      ::operator delete(block);
    }
    stats_.free_bytes -= free_lists_[cls].size() * ClassBytes(cls);
    free_lists_[cls].clear();
  }
}

}  // namespace mem
