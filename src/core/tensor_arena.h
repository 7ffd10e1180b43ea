#ifndef MCOND_CORE_TENSOR_ARENA_H_
#define MCOND_CORE_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mcond {
namespace internal {

/// Bump-pointer arena backing Tensor storage for a bounded scope.
///
/// While a ScopedTensorArena is active on a thread, every Tensor allocation
/// made on that thread (Uninitialized, ZeroedLike, kernel outputs, autograd
/// intermediates) is carved out of the arena's pages instead of the heap,
/// and the matching deallocation is a no-op — memory is reclaimed in bulk
/// by Reset(). Pages grow geometrically and are retained across Reset(), so
/// a workload with a stable allocation profile (e.g. serving a fixed batch
/// shape) touches the heap only while warming up and never after.
///
/// Rules of use:
///  - Every tensor allocated under the arena must be destroyed (or moved
///    from, leaving it empty) before Reset() or the arena's destruction.
///    Results that outlive the scope must be copied into tensors that were
///    allocated outside the arena.
///  - An arena is installed per-thread. Pool workers inside ParallelFor do
///    not inherit it, which is safe: kernels allocate outputs on the
///    calling thread and workers only write into them.
///  - Blocks carry a 16-byte ownership header, so freeing a heap tensor
///    while an arena is active (and vice versa) routes correctly.
class TensorArena {
 public:
  TensorArena() = default;
  ~TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;

  /// Reclaims all allocations at once; pages are kept for reuse. Invalid if
  /// any tensor allocated from this arena is still alive.
  void Reset();

  /// Total bytes of page capacity currently reserved.
  size_t bytes_reserved() const;
  /// Number of pages ever allocated (each one costs a heap allocation).
  int64_t pages_allocated() const { return static_cast<int64_t>(pages_.size()); }

 private:
  friend void* TensorAlloc(size_t bytes);

  struct Page {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  /// Returns a 16-byte-aligned block of `bytes`, creating a page if needed.
  void* Allocate(size_t bytes);

  std::vector<Page> pages_;
  size_t active_ = 0;  // first page that may still have room
};

/// RAII installer: makes `arena` the calling thread's allocation target for
/// the lifetime of the scope, restoring the previous target on exit.
/// Passing nullptr opts back into heap allocation for the scope (used when
/// a persistent tensor must be (re)allocated inside an arena region).
class ScopedTensorArena {
 public:
  explicit ScopedTensorArena(TensorArena* arena);
  ~ScopedTensorArena();
  ScopedTensorArena(const ScopedTensorArena&) = delete;
  ScopedTensorArena& operator=(const ScopedTensorArena&) = delete;

 private:
  TensorArena* prev_;
};

/// The arena currently installed on this thread, or nullptr.
TensorArena* CurrentTensorArena();

/// RAII: while at least one scope is alive anywhere in the process, freed
/// heap memory stays in the process instead of going back to the OS.
///
/// glibc hands blocks of >= 128 KiB to mmap and trims the top of the heap
/// once it holds 128 KiB free, so a loop that allocates and frees the same
/// multi-MiB temporaries every step (Algorithm 1's S- and M-steps) faults
/// their pages back in on every step. The first holder raises
/// M_MMAP_THRESHOLD to its 32 MiB maximum and turns trimming off, so freed
/// temporaries are recycled by glibc's own coalescing heap. The last holder
/// sets M_TRIM_THRESHOLD to 64 MiB and returns the retained memory with
/// malloc_trim(0), so code that runs after the scope (serving threads) does
/// not inherit it. 32/64 MiB are where glibc's dynamic thresholds settle;
/// mallopt switches that adjustment off for good, and its 128 KiB start
/// values would turn every later block of >= 128 KiB into an mmap.
///
/// Holders are counted under a mutex, so concurrent and nested scopes
/// compose. The thresholds are process-wide malloc state: other threads
/// retain too while any scope is held. A no-op without glibc.
class ScopedHeapRetention {
 public:
  ScopedHeapRetention();
  ~ScopedHeapRetention();
  ScopedHeapRetention(const ScopedHeapRetention&) = delete;
  ScopedHeapRetention& operator=(const ScopedHeapRetention&) = delete;
};

/// Number of ScopedHeapRetention scopes alive in the process.
int HeapRetentionHolders();

}  // namespace internal
}  // namespace mcond

#endif  // MCOND_CORE_TENSOR_ARENA_H_
