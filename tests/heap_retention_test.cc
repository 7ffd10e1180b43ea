// ScopedHeapRetention (core/tensor_arena.h): freed heap memory stays
// resident while a scope is held, the process trims its heap again after
// the last exit, and that exit gives the retained memory back.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/tensor.h"
#include "core/tensor_arena.h"
#include "obs/resource.h"

namespace mcond {
namespace {

using internal::HeapRetentionHolders;
using internal::ScopedHeapRetention;

// Retention is glibc malloc state; the sanitizers bring their own
// allocators, which ignore it. Holder counting is checked everywhere.
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kRetentionTakesEffect = true;
#else
constexpr bool kRetentionTakesEffect = false;
#endif

constexpr int64_t kCols = 1024;  // 4 KiB per row: one page per row
// 1, 1.5, 2 and 1.25 MiB: every tensor is above glibc's 128 KiB initial
// mmap and trim thresholds.
constexpr int64_t kWorkingSetRows[] = {256, 384, 512, 320};
constexpr int64_t kWorkingSetPages = 256 + 384 + 512 + 320;
constexpr int kSteps = 20;

// The condense pattern: every step allocates the same working set of
// tensors, writes it and frees it. Returns the minor faults taken.
int64_t CondenseLikeFaults() {
  const int64_t before = obs::CurrentProcessUsage().minor_faults;
  for (int step = 0; step < kSteps; ++step) {
    std::vector<Tensor> working_set;
    for (int64_t rows : kWorkingSetRows) {
      working_set.push_back(Tensor::Full(rows, kCols, 1.0f));
    }
  }
  return obs::CurrentProcessUsage().minor_faults - before;
}

TEST(HeapRetentionTest, HoldersNest) {
  EXPECT_EQ(HeapRetentionHolders(), 0);
  {
    ScopedHeapRetention outer;
    EXPECT_EQ(HeapRetentionHolders(), 1);
    {
      ScopedHeapRetention inner;
      EXPECT_EQ(HeapRetentionHolders(), 2);
    }
    EXPECT_EQ(HeapRetentionHolders(), 1);
  }
  EXPECT_EQ(HeapRetentionHolders(), 0);
}

// Runs `check` in a freshly executed copy of this test (gtest's threadsafe
// death-test style re-executes the binary), so fault counts start from a
// pristine heap: a free hole left behind by an earlier test would let even
// the default thresholds recycle memory. `check` prints its numbers to
// stderr and returns whether they hold.
template <typename Check>
void ExpectInFreshProcess(Check check) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::exit(check() ? 0 : 1), ::testing::ExitedWithCode(0), "");
}

TEST(HeapRetentionTest, CondensePatternFaultsFarLessInsideScope) {
  if (!kRetentionTakesEffect) GTEST_SKIP() << "no glibc malloc to tune";
  ExpectInFreshProcess([] {
    const int64_t outside = CondenseLikeFaults();
    int64_t inside = 0;
    {
      ScopedHeapRetention retain;
      inside = CondenseLikeFaults();
    }
    std::fprintf(stderr, "faults outside %lld inside %lld\n",
                 static_cast<long long>(outside),
                 static_cast<long long>(inside));
    // Outside, every step faults its working set back in; inside, only
    // the first step does.
    return outside > kSteps * kWorkingSetPages / 2 && inside * 4 < outside;
  });
}

TEST(HeapRetentionTest, ConcurrentHoldersLeaveHeapTrimming) {
  std::atomic<int> ready{0};
  auto churn = [&ready] {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    for (int i = 0; i < 200; ++i) {
      ScopedHeapRetention retain;
      Tensor scratch = Tensor::Full(256, kCols, 1.0f);
    }
  };
  std::thread a(churn);
  std::thread b(churn);
  a.join();
  b.join();
  EXPECT_EQ(HeapRetentionHolders(), 0);
  if (!kRetentionTakesEffect) return;
  // Whichever thread left last, the heap trims itself again: 72 MiB freed
  // at the top of the heap is above the 64 MiB trim threshold the last
  // exit sets, so it goes back to the OS without a malloc_trim. A scope
  // still held would keep it.
  ExpectInFreshProcess([] {
    constexpr int64_t kFreedBytes = 24 * 768 * kCols * sizeof(float);
    const int64_t rss_before = obs::CurrentRssBytes();
    {
      std::vector<Tensor> freed;
      freed.reserve(24);  // no live block above the tensors pins the top
      for (int i = 0; i < 24; ++i) {
        freed.push_back(Tensor::Full(768, kCols, 1.0f));  // 3 MiB each
      }
    }
    const int64_t rss_after = obs::CurrentRssBytes();
    std::fprintf(stderr, "rss before %lld after freeing %lld\n",
                 static_cast<long long>(rss_before),
                 static_cast<long long>(rss_after));
    return rss_after < rss_before + kFreedBytes / 2;
  });
}

TEST(HeapRetentionTest, RssFallsBackAfterLastExit) {
  if (!kRetentionTakesEffect) GTEST_SKIP() << "no glibc malloc to tune";
  constexpr int64_t kFreedBytes = 24 * 384 * kCols * sizeof(float);  // 36 MiB
  int64_t rss_retained = 0;
  int64_t rss_after_inner_exit = 0;
  {
    ScopedHeapRetention outer;
    {
      ScopedHeapRetention inner;
      std::vector<Tensor> freed;
      for (int i = 0; i < 24; ++i) {
        freed.push_back(Tensor::Full(384, kCols, 1.0f));
      }
      freed.clear();
      rss_retained = obs::CurrentRssBytes();
    }
    rss_after_inner_exit = obs::CurrentRssBytes();
  }
  const int64_t rss_released = obs::CurrentRssBytes();
  // Only the last exit trims: the inner one keeps the memory resident.
  EXPECT_GT(rss_after_inner_exit, rss_retained - kFreedBytes / 4);
  EXPECT_LT(rss_released, rss_retained - kFreedBytes / 2)
      << "retained " << rss_retained << " released " << rss_released;
}

}  // namespace
}  // namespace mcond
