#include "core/segment_prefetcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/csr_matrix.h"
#include "core/rng.h"
#include "core/sharded_csr.h"
#include "scratch_path.h"

namespace mcond {
namespace {

CsrMatrix RandomCsr(int64_t rows, int64_t cols, int64_t nnz_per_row,
                    uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = 0; k < nnz_per_row; ++k) {
      triplets.push_back(
          {r, rng.RandInt(0, cols - 1), rng.Uniform(0.1f, 1.0f)});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

ShardedCsr OpenStore(const CsrMatrix& m, const std::string& path,
                     int64_t rows_per_segment, int64_t mem_budget_bytes) {
  ShardOptions options;
  options.max_rows_per_segment = rows_per_segment;
  EXPECT_TRUE(ShardedCsr::Write(m, path, options).ok());
  StatusOr<ShardedCsr> sharded = ShardedCsr::Open(path, mem_budget_bytes);
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(sharded).value();
}

/// A pinned view must be bit-identical to the matrix rows it covers no
/// matter which path produced it (sync pin, prefetch handover, post-evict
/// remap).
bool ViewMatchesMatrix(const CsrView& view, const CsrMatrix& m) {
  if (view.row_ptr == nullptr) return false;
  const int64_t base = m.row_ptr()[static_cast<size_t>(view.row_begin)];
  for (int64_t r = view.row_begin; r < view.row_end; ++r) {
    if (base + view.row_ptr[r - view.row_begin + 1] !=
        m.row_ptr()[static_cast<size_t>(r) + 1]) {
      return false;
    }
  }
  for (int64_t k = 0; k < view.nnz; ++k) {
    if (view.col_idx[k] != m.col_idx()[static_cast<size_t>(base + k)] ||
        view.values[k] != m.values()[static_cast<size_t>(base + k)]) {
      return false;
    }
  }
  return true;
}

/// Polls `pred` for up to ~2 seconds.
bool WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 20000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return pred();
}

/// Restores the ambient prefetch depth on scope exit so tests cannot leak
/// their setting into each other.
struct ScopedPrefetchDepth {
  explicit ScopedPrefetchDepth(int64_t depth) : saved(PrefetchSegments()) {
    SetPrefetchSegments(depth);
  }
  ~ScopedPrefetchDepth() { SetPrefetchSegments(saved); }
  const int64_t saved;
};

TEST(PrefetchDepthTest, SetClampsAndSticks) {
  const int64_t saved = PrefetchSegments();
  SetPrefetchSegments(-5);
  EXPECT_EQ(PrefetchSegments(), 0);
  SetPrefetchSegments(3);
  EXPECT_EQ(PrefetchSegments(), 3);
  SetPrefetchSegments(100000);
  EXPECT_EQ(PrefetchSegments(), 64);  // documented hard cap
  SetPrefetchSegments(saved);
}

TEST(SegmentPrefetcherTest, HintThenAcquireHitsCompletedPrefetches) {
  const CsrMatrix m = RandomCsr(96, 64, 5, 101);
  const std::string path = ScratchPath("prefetch_hits.mcss");
  ShardedCsr store = OpenStore(m, path, /*rows_per_segment=*/16,
                               /*mem_budget_bytes=*/0);
  ASSERT_EQ(store.NumSegments(), 6);
  {
    SegmentPrefetcher pf(store, /*depth=*/3);
    std::vector<int64_t> order;
    for (int64_t s = 0; s < store.NumSegments(); ++s) order.push_back(s);
    pf.Hint(order);
    // Let the worker fill its ready buffer before consuming: the first
    // `depth` acquisitions are then guaranteed handovers.
    ASSERT_TRUE(WaitUntil([&] { return pf.stats().issued >= 3; }));
    for (int64_t s = 0; s < store.NumSegments(); ++s) {
      StatusOr<PinnedSegment> pin = pf.AcquireOrPin(s);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
    }
    const SegmentPrefetcher::Stats stats = pf.stats();
    EXPECT_GE(stats.hits, 3);
    EXPECT_EQ(stats.hits + stats.misses, store.NumSegments());
  }
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, UnhintedAcquireFallsBackToSynchronousPin) {
  const CsrMatrix m = RandomCsr(64, 64, 5, 103);
  const std::string path = ScratchPath("prefetch_miss.mcss");
  ShardedCsr store = OpenStore(m, path, 16, 0);
  {
    SegmentPrefetcher pf(store, 2);
    StatusOr<PinnedSegment> pin = pf.AcquireOrPin(2);
    ASSERT_TRUE(pin.ok());
    EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
    const SegmentPrefetcher::Stats stats = pf.stats();
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(stats.misses, 1);
  }
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, BudgetAdmissionNeverExceedsBudget) {
  const CsrMatrix m = RandomCsr(128, 64, 6, 107);
  const std::string path = ScratchPath("prefetch_budget.mcss");
  // Budget: two segments plus slack. With depth 3 the worker would love to
  // hold three ready pins — admission must throttle it to the budget, and
  // the consumer's sequence must still complete (degrading to sync pins is
  // allowed; exceeding the budget is not).
  ShardOptions options;
  options.max_rows_per_segment = 16;
  ASSERT_TRUE(ShardedCsr::Write(m, path, options).ok());
  int64_t budget = 0;
  {
    StatusOr<ShardedCsr> probe = ShardedCsr::Open(path, 0);
    ASSERT_TRUE(probe.ok());
    budget = probe.value().segment(0).byte_size +
             probe.value().segment(1).byte_size + 64;
  }
  StatusOr<ShardedCsr> opened = ShardedCsr::Open(path, budget);
  ASSERT_TRUE(opened.ok());
  const ShardedCsr& store = opened.value();
  {
    SegmentPrefetcher pf(store, /*depth=*/3);
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<int64_t> order;
      for (int64_t s = 0; s < store.NumSegments(); ++s) order.push_back(s);
      pf.Hint(order);
      for (int64_t s = 0; s < store.NumSegments(); ++s) {
        StatusOr<PinnedSegment> pin = pf.AcquireOrPin(s);
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
        EXPECT_LE(store.PinnedBytes(), budget);
      }
      EXPECT_LE(store.PinnedBytes(), budget);
    }
    const SegmentPrefetcher::Stats stats = pf.stats();
    EXPECT_EQ(stats.hits + stats.misses, 3 * store.NumSegments());
  }
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, HintReplacesPreviousSchedule) {
  const CsrMatrix m = RandomCsr(128, 64, 5, 109);
  const std::string path = ScratchPath("prefetch_rehint.mcss");
  ShardedCsr store = OpenStore(m, path, 16, 0);
  {
    SegmentPrefetcher pf(store, 2);
    pf.Hint({0, 1, 2, 3});
    ASSERT_TRUE(WaitUntil([&] { return pf.stats().issued >= 1; }));
    // Abandon the first schedule mid-flight; the new one must be served
    // correctly regardless of what the worker had completed or started.
    pf.Hint({7, 6, 5});
    for (int64_t s : {7, 6, 5}) {
      StatusOr<PinnedSegment> pin = pf.AcquireOrPin(s);
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      EXPECT_EQ(pin.value().view().index, s);
      EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
    }
  }
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, EvictionRacesInflightPrefetch) {
  const CsrMatrix m = RandomCsr(128, 64, 6, 113);
  const std::string path = ScratchPath("prefetch_evict_race.mcss");
  // One-byte budget: every unpinned segment is evicted (munmapped) as soon
  // as the next pin activity runs, so prefetch handovers constantly race
  // eviction of their neighbours. A churn thread pins random segments
  // through the plain path to keep the LRU hot.
  ShardedCsr store = OpenStore(m, path, 16, /*mem_budget_bytes=*/1);
  std::atomic<bool> done{false};
  std::atomic<bool> churn_failed{false};
  std::thread churn([&] {
    Rng rng(7);
    while (!done.load(std::memory_order_relaxed)) {
      const int64_t s = rng.RandInt(0, store.NumSegments() - 1);
      StatusOr<PinnedSegment> pin = store.Pin(s);
      if (!pin.ok() || pin.value().view().row_ptr == nullptr) {
        churn_failed.store(true);
        return;
      }
    }
  });
  {
    SegmentPrefetcher pf(store, 2);
    for (int pass = 0; pass < 4; ++pass) {
      std::vector<int64_t> order;
      for (int64_t s = 0; s < store.NumSegments(); ++s) order.push_back(s);
      pf.Hint(order);
      for (int64_t s = 0; s < store.NumSegments(); ++s) {
        StatusOr<PinnedSegment> pin = pf.AcquireOrPin(s);
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
      }
    }
  }
  done.store(true);
  churn.join();
  EXPECT_FALSE(churn_failed.load());
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, CleanShutdownWithHintsOutstanding) {
  const CsrMatrix m = RandomCsr(128, 64, 5, 127);
  const std::string path = ScratchPath("prefetch_shutdown.mcss");
  ShardedCsr store = OpenStore(m, path, 16, 0);
  // Destroy the prefetcher at every phase of its pipeline: idle, mid-fetch,
  // ready-buffer full. Must neither hang nor leak pins (the store teardown
  // below would trip on outstanding pins under asan).
  for (int i = 0; i < 20; ++i) {
    SegmentPrefetcher pf(store, 2);
    std::vector<int64_t> order;
    for (int64_t s = 0; s < store.NumSegments(); ++s) order.push_back(s);
    pf.Hint(order);
    if (i % 3 == 1) {
      (void)pf.AcquireOrPin(0);
    } else if (i % 3 == 2) {
      WaitUntil([&] { return pf.stats().issued >= 1; });
    }
  }
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, StoreTeardownWithStoreOwnedWorker) {
  const CsrMatrix m = RandomCsr(96, 64, 5, 131);
  const std::string path = ScratchPath("prefetch_store_teardown.mcss");
  ScopedPrefetchDepth depth(2);
  for (int i = 0; i < 10; ++i) {
    ShardedCsr store = OpenStore(m, path, 16, 0);
    std::vector<int64_t> order(static_cast<size_t>(store.NumSegments()));
    std::iota(order.begin(), order.end(), 0);
    store.PrefetchHintSegments(std::move(order));
    if (i % 2 == 1) {
      StatusOr<PinnedSegment> pin = store.PinPrefetched(0);
      ASSERT_TRUE(pin.ok());
      EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
    }
    // `store` (and its lazily created worker, possibly mid-fetch) tears
    // down here with the rest of the hint outstanding.
  }
  std::filesystem::remove(path);
}

TEST(SegmentPrefetcherTest, TruncatedFileSurfacesStatusAtPinTime) {
  const CsrMatrix m = RandomCsr(64, 64, 5, 137);
  const std::string path = ScratchPath("prefetch_truncated.mcss");
  ShardedCsr store = OpenStore(m, path, 16, 0);
  // The store shrinks after Open; the worker's pin attempt must record the
  // failure and hand it to the consumer as a Status — never SIGBUS, never
  // a silent skip.
  std::filesystem::resize_file(path, 64);
  {
    SegmentPrefetcher pf(store, 2);
    pf.Hint({0, 1});
    ASSERT_TRUE(WaitUntil([&] { return pf.stats().issued >= 1; }));
    StatusOr<PinnedSegment> pin = pf.AcquireOrPin(0);
    ASSERT_FALSE(pin.ok());
    EXPECT_EQ(pin.status().code(), StatusCode::kInternal);
  }
  std::filesystem::remove(path);
}

TEST(SequentialCursorTest, FullPassIsBitIdenticalToPlainPins) {
  const CsrMatrix m = RandomCsr(128, 64, 6, 139);
  const std::string path = ScratchPath("prefetch_cursor.mcss");
  for (const int64_t depth : {int64_t{0}, int64_t{3}}) {
    ScopedPrefetchDepth scoped(depth);
    ShardedCsr store = OpenStore(m, path, 16, 0);
    SequentialCursor cursor(store);
    EXPECT_EQ(cursor.remaining(), store.NumSegments());
    for (int64_t s = 0; s < store.NumSegments(); ++s) {
      StatusOr<PinnedSegment> pin = cursor.Next();
      ASSERT_TRUE(pin.ok()) << pin.status().ToString();
      EXPECT_EQ(pin.value().view().index, s);
      EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
    }
    EXPECT_EQ(cursor.remaining(), 0);
    EXPECT_EQ(cursor.Next().status().code(), StatusCode::kOutOfRange);
  }
  std::filesystem::remove(path);
}

TEST(SequentialCursorTest, ExplicitScheduleVisitsExactlyThoseSegments) {
  const CsrMatrix m = RandomCsr(128, 64, 5, 149);
  const std::string path = ScratchPath("prefetch_cursor_sched.mcss");
  ScopedPrefetchDepth scoped(2);
  ShardedCsr store = OpenStore(m, path, 16, 0);
  const std::vector<int64_t> schedule = {1, 4, 6};
  SequentialCursor cursor(store, schedule);
  for (int64_t want : schedule) {
    StatusOr<PinnedSegment> pin = cursor.Next();
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(pin.value().view().index, want);
    EXPECT_TRUE(ViewMatchesMatrix(pin.value().view(), m));
  }
  EXPECT_EQ(cursor.remaining(), 0);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mcond
