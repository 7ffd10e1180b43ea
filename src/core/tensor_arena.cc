#include "core/tensor_arena.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <new>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/logging.h"
#include "core/tensor.h"

namespace mcond {
namespace internal {
namespace {

// Prefixed to every block handed out by TensorAlloc. `owner` distinguishes
// arena blocks (freed in bulk by Reset) from heap blocks (freed eagerly).
// 16 bytes keeps the payload aligned for float/double regardless of the
// base allocation's alignment.
struct AllocHeader {
  TensorArena* owner;
  uint64_t pad;
};
static_assert(sizeof(AllocHeader) == 16, "payload alignment depends on this");

constexpr size_t kHeaderBytes = sizeof(AllocHeader);
constexpr size_t kMinPageBytes = size_t{1} << 20;  // 1 MiB

std::atomic<int64_t> g_tensor_heap_allocs{0};
thread_local TensorArena* tl_arena = nullptr;

std::mutex g_retention_mu;
int g_retention_holders = 0;  // guarded by g_retention_mu

#if defined(__GLIBC__)
// glibc raises both thresholds on its own: freeing an mmap'd block of up
// to 32 MiB lifts M_MMAP_THRESHOLD to that size and M_TRIM_THRESHOLD to
// twice it. mallopt switches that rule off for good, so the last exit
// leaves the values it tops out at (a serving process took ~140x the
// faults with the 128 KiB start values restored).
constexpr int kMaxMmapThreshold = 32 * 1024 * 1024;  // mallopt rejects more
constexpr int kSettledTrimThreshold = 2 * kMaxMmapThreshold;
#endif

}  // namespace

void* TensorArena::Allocate(size_t bytes) {
  bytes = (bytes + 63) & ~size_t{63};  // keep successive blocks cache-aligned
  while (active_ < pages_.size()) {
    Page& p = pages_[active_];
    if (p.used + bytes <= p.capacity) {
      void* out = p.data.get() + p.used;
      p.used += bytes;
      return out;
    }
    ++active_;  // tail of this page is wasted; later pages are larger
  }
  const size_t cap = std::max(
      bytes, pages_.empty() ? kMinPageBytes : pages_.back().capacity * 2);
  g_tensor_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  pages_.push_back(Page{std::unique_ptr<char[]>(new char[cap]), cap, bytes});
  active_ = pages_.size() - 1;
  return pages_.back().data.get();
}

void TensorArena::Reset() {
  for (Page& p : pages_) p.used = 0;
  active_ = 0;
}

size_t TensorArena::bytes_reserved() const {
  size_t total = 0;
  for (const Page& p : pages_) total += p.capacity;
  return total;
}

ScopedTensorArena::ScopedTensorArena(TensorArena* arena) : prev_(tl_arena) {
  tl_arena = arena;
}

ScopedTensorArena::~ScopedTensorArena() { tl_arena = prev_; }

TensorArena* CurrentTensorArena() { return tl_arena; }

ScopedHeapRetention::ScopedHeapRetention() {
  std::lock_guard<std::mutex> lock(g_retention_mu);
  if (g_retention_holders++ > 0) return;
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, kMaxMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, -1);  // -1: never trim the top of the heap
#endif
}

ScopedHeapRetention::~ScopedHeapRetention() {
  std::lock_guard<std::mutex> lock(g_retention_mu);
  if (--g_retention_holders > 0) return;
#if defined(__GLIBC__)
  // M_MMAP_THRESHOLD stays at kMaxMmapThreshold.
  mallopt(M_TRIM_THRESHOLD, kSettledTrimThreshold);
  malloc_trim(0);
#endif
}

int HeapRetentionHolders() {
  std::lock_guard<std::mutex> lock(g_retention_mu);
  return g_retention_holders;
}

void* TensorAlloc(size_t bytes) {
  if (TensorArena* arena = tl_arena) {
    void* block = arena->Allocate(bytes + kHeaderBytes);
    static_cast<AllocHeader*>(block)->owner = arena;
    return static_cast<char*>(block) + kHeaderBytes;
  }
  g_tensor_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* block = ::operator new(bytes + kHeaderBytes);
  static_cast<AllocHeader*>(block)->owner = nullptr;
  return static_cast<char*>(block) + kHeaderBytes;
}

void TensorFree(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeaderBytes;
  if (reinterpret_cast<AllocHeader*>(block)->owner != nullptr) {
    return;  // arena memory: reclaimed wholesale by TensorArena::Reset()
  }
  ::operator delete(block);
}

int64_t TensorHeapAllocCount() {
  return g_tensor_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace internal
}  // namespace mcond
