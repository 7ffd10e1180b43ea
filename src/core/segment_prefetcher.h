#ifndef MCOND_CORE_SEGMENT_PREFETCHER_H_
#define MCOND_CORE_SEGMENT_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sharded_csr.h"
#include "core/status.h"

namespace mcond {

namespace internal {
struct ShardedCsrState;
}  // namespace internal

/// Ambient prefetch depth: how many segments a store's background worker may
/// hold ready ahead of the consumer (0 disables prefetch entirely). Follows
/// the MCOND_NUM_THREADS / MCOND_SIMD idiom: resolved once from the
/// MCOND_PREFETCH_SEGMENTS environment variable (default 2 — double
/// buffering), overridable with SetPrefetchSegments (mcond_cli
/// --prefetch_segments). A store creates its worker lazily at the first
/// PrefetchHintSegments, snapshotting the depth in effect at that moment.
int64_t PrefetchSegments();
void SetPrefetchSegments(int64_t depth);

/// Background single-thread prefetcher for one ShardedCsr: pins and faults
/// in upcoming segments ahead of the consumer, so the consumer's pin is a
/// handover instead of a blocking mmap + page-fault walk.
///
/// Budget-aware admission: a segment is fetched only while the store's
/// pinned payload, plus the payload of the pins still in progress, plus that
/// segment fits mem_budget_bytes; otherwise the worker holds off and the
/// consumer degrades to a synchronous Pin — prefetch never makes the store
/// exceed a budget it would otherwise meet.
/// Purely a timing optimization: results are bit-identical at any depth.
///
/// Normally created lazily inside ShardedCsr (see PrefetchHintSegments /
/// PinPrefetched); the public constructor exists for tests that drive the
/// worker directly.
class SegmentPrefetcher {
 public:
  struct Stats {
    int64_t issued = 0;    ///< prefetch pins completed by the worker
    int64_t hits = 0;      ///< consumer pins served from a completed prefetch
    int64_t misses = 0;    ///< consumer pins that fell back to synchronous
    int64_t stalls = 0;    ///< hits that waited on the in-flight fetch
    int64_t stall_us = 0;  ///< total wait time across those stalls
  };

  /// Standalone worker over `store` (keeps the store's mapping state alive;
  /// depth is clamped to >= 1).
  SegmentPrefetcher(const ShardedCsr& store, int64_t depth);
  ~SegmentPrefetcher();
  SegmentPrefetcher(const SegmentPrefetcher&) = delete;
  SegmentPrefetcher& operator=(const SegmentPrefetcher&) = delete;

  /// Replaces the schedule with `order`; the worker starts on its head.
  /// Ready segments from the previous schedule are dropped (their pins
  /// released), and an in-flight fetch from it is discarded on completion.
  void Hint(std::vector<int64_t> order);

  /// Consumes one segment: a completed prefetch is handed over (hit), an
  /// in-flight one is waited for (stall, then hit), anything else is pinned
  /// synchronously (miss). A failed prefetch surfaces its Status here, at
  /// pin time.
  StatusOr<PinnedSegment> AcquireOrPin(int64_t index);

  /// Drops the schedule and every completed-but-unclaimed pin.
  void Cancel();

  int64_t depth() const { return depth_; }
  Stats stats() const;

 private:
  friend struct internal::ShardedCsrState;

  struct Ready {
    int64_t index = -1;
    PinnedSegment pin;  // engaged iff status.ok()
    Status status = Status::Ok();
  };

  SegmentPrefetcher(internal::ShardedCsrState* state,
                    std::shared_ptr<internal::ShardedCsrState> keep_alive,
                    int64_t depth);

  void WorkerLoop();
  /// Whether pinning segment `index` keeps the store within its budget,
  /// counting the pins still in progress (reserved_bytes_). Holds mu_.
  bool AdmitsBudget(int64_t index) const;

  internal::ShardedCsrState* const state_;
  /// Engaged for standalone (test) instances; null when the state itself
  /// owns the prefetcher (a shared_ptr there would be a cycle).
  const std::shared_ptr<internal::ShardedCsrState> keep_alive_;
  const int64_t depth_;

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;    // schedule / capacity / stop changes
  std::condition_variable consumer_cv_;  // in-flight fetch completed
  std::deque<int64_t> schedule_;
  std::deque<Ready> ready_;
  int64_t inflight_ = -1;
  /// Payload of the pins the worker or a missing consumer has started but
  /// that have not yet landed in the store's pinned bytes.
  int64_t reserved_bytes_ = 0;
  /// Bumped by Hint/Cancel; an in-flight result from an older epoch is
  /// dropped when it completes instead of entering ready_.
  uint64_t epoch_ = 0;
  bool stop_ = false;
  Stats stats_;
  std::thread worker_;  // last member: starts after everything above exists
};

/// Declares a segment visit order up front and pins through the store's
/// prefetcher: `SequentialCursor cur(store); ... cur.Next()` per segment.
/// With prefetch off (depth 0) this is exactly the plain Pin loop. The
/// destructor cancels whatever part of the schedule was not consumed, so an
/// early error exit does not leave the worker fetching dead segments.
class SequentialCursor {
 public:
  /// Visits all segments in order 0..NumSegments()-1.
  explicit SequentialCursor(const ShardedCsr& store);
  /// Visits exactly `order` (e.g. the unique segments of a sorted row list).
  SequentialCursor(const ShardedCsr& store, std::vector<int64_t> order);
  ~SequentialCursor();
  SequentialCursor(const SequentialCursor&) = delete;
  SequentialCursor& operator=(const SequentialCursor&) = delete;

  /// Pins the next scheduled segment; OutOfRange once exhausted.
  StatusOr<PinnedSegment> Next();
  int64_t remaining() const {
    return static_cast<int64_t>(order_.size() - next_);
  }

 private:
  const ShardedCsr* store_;
  std::vector<int64_t> order_;
  size_t next_ = 0;
};

}  // namespace mcond

#endif  // MCOND_CORE_SEGMENT_PREFETCHER_H_
