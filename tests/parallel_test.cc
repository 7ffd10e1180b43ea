// Determinism contract of the parallel substrate (docs/performance.md):
// every parallel kernel must be BIT-IDENTICAL to its single-threaded
// reference at every thread count and for every shape, including the
// degenerate ones (1×1, single row, single column, prime dimensions that
// never align with the cache-block tile sizes).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "core/csr_matrix.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "graph/graph.h"

namespace mcond {
namespace {

/// Exact float equality, including -0.0 vs +0.0 and NaN bit patterns.
::testing::AssertionResult BitEqual(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (a.size() == 0) return ::testing::AssertionSuccess();
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&pa[i], &pb[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first differing element at flat index " << i << " ("
             << i / a.cols() << ", " << i % a.cols() << "): " << pa[i]
             << " vs " << pb[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Restores the pool width after each test so order doesn't matter.
///
/// Pins the scalar SIMD tier for the duration: these tests compare the
/// parallel kernels against the single-threaded serial:: oracles, and that
/// comparison is only bit-exact on the scalar tier (the AVX2 GEMM kernels
/// use FMA and softmax also a lane reduction — tolerance-bounded, covered
/// by simd_test). Cross-THREAD-count bit-identity within the AVX2 tier is
/// exercised separately below in SimdTierThreadCountsAgree.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_tier_ = simd::ActiveTier();
    simd::SetTier(simd::Tier::kScalar);
  }
  void TearDown() override {
    simd::SetTier(saved_tier_);
    ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
  }

 private:
  simd::Tier saved_tier_;
};

const int kThreadCounts[] = {1, 3, 16};

// (m, k, n) GEMM shapes: degenerate, prime (misaligned with the 64/128/256
// block sizes), and one larger-than-one-tile shape.
struct GemmShape {
  int64_t m, k, n;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1}, {1, 7, 1},    {5, 1, 3},     {1, 1, 129},
    {7, 13, 11}, {31, 67, 29}, {127, 131, 61}, {3, 300, 270},
};

TEST_F(ParallelTest, MatMulBitExactAcrossThreadCounts) {
  Rng rng(7);
  for (const GemmShape& s : kGemmShapes) {
    const Tensor a = rng.NormalTensor(s.m, s.k);
    const Tensor b = rng.NormalTensor(s.k, s.n);
    const Tensor ref = serial::MatMul(a, b);
    for (int t : kThreadCounts) {
      ThreadPool::Global().SetNumThreads(t);
      EXPECT_TRUE(BitEqual(MatMul(a, b), ref))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " threads " << t;
    }
  }
}

TEST_F(ParallelTest, MatMulTransABitExactAcrossThreadCounts) {
  Rng rng(8);
  for (const GemmShape& s : kGemmShapes) {
    const Tensor a = rng.NormalTensor(s.k, s.m);  // result is aᵀ·b: m×n
    const Tensor b = rng.NormalTensor(s.k, s.n);
    const Tensor ref = serial::MatMulTransA(a, b);
    for (int t : kThreadCounts) {
      ThreadPool::Global().SetNumThreads(t);
      EXPECT_TRUE(BitEqual(MatMulTransA(a, b), ref))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " threads " << t;
    }
  }
}

TEST_F(ParallelTest, MatMulTransBBitExactAcrossThreadCounts) {
  Rng rng(9);
  for (const GemmShape& s : kGemmShapes) {
    const Tensor a = rng.NormalTensor(s.m, s.k);
    const Tensor b = rng.NormalTensor(s.n, s.k);  // result is a·bᵀ: m×n
    const Tensor ref = serial::MatMulTransB(a, b);
    for (int t : kThreadCounts) {
      ThreadPool::Global().SetNumThreads(t);
      EXPECT_TRUE(BitEqual(MatMulTransB(a, b), ref))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " threads " << t;
    }
  }
}

TEST_F(ParallelTest, MatMulPropagatesNonFinites) {
  // The old kernels skipped a==0 entries, which silently turned 0·inf and
  // 0·nan into 0. The blocked kernels must propagate them like the naive
  // triple loop does.
  Tensor a(1, 2);
  a.At(0, 0) = 0.0f;
  a.At(0, 1) = 1.0f;
  Tensor b(2, 1);
  b.At(0, 0) = std::numeric_limits<float>::infinity();
  b.At(1, 0) = 1.0f;
  const Tensor ref = serial::MatMul(a, b);  // 0·inf + 1 = nan
  EXPECT_TRUE(std::isnan(ref.At(0, 0)));
  EXPECT_TRUE(BitEqual(MatMul(a, b), ref));
}

CsrMatrix RandomSparse(int64_t rows, int64_t cols, int64_t nnz_per_row,
                       Rng& rng) {
  std::vector<Triplet> t;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = 0; k < nnz_per_row; ++k) {
      t.push_back({r, rng.RandInt(0, cols - 1),
                   static_cast<float>(rng.RandInt(-8, 8)) * 0.25f});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(t));
}

TEST_F(ParallelTest, SpMMBitExactAcrossThreadCounts) {
  Rng rng(10);
  for (int64_t rows : {1, 13, 257}) {
    const CsrMatrix s = RandomSparse(rows, 97, 5, rng);
    const Tensor x = rng.NormalTensor(97, 33);
    const Tensor ref = s.SpMMSerial(x);
    for (int t : kThreadCounts) {
      ThreadPool::Global().SetNumThreads(t);
      EXPECT_TRUE(BitEqual(s.SpMM(x), ref)) << rows << " rows, " << t
                                            << " threads";
    }
  }
}

TEST_F(ParallelTest, SpMMTransposedBitExactAcrossThreadCounts) {
  Rng rng(11);
  for (int64_t rows : {1, 13, 257}) {
    const CsrMatrix s = RandomSparse(rows, 97, 5, rng);
    const Tensor x = rng.NormalTensor(rows, 33);
    const Tensor ref = s.SpMMTransposedSerial(x);
    for (int t : kThreadCounts) {
      ThreadPool::Global().SetNumThreads(t);
      EXPECT_TRUE(BitEqual(s.SpMMTransposed(x), ref))
          << rows << " rows, " << t << " threads";
    }
  }
}

TEST_F(ParallelTest, SoftmaxAndElementwiseBitExact) {
  Rng rng(13);
  const Tensor a = rng.NormalTensor(61, 37);
  const Tensor b = rng.NormalTensor(61, 37);
  const Tensor softmax_ref = serial::SoftmaxRows(a);
  ThreadPool::Global().SetNumThreads(1);
  const Tensor add1 = Add(a, b);
  const Tensor mul1 = Mul(a, b);
  const Tensor relu1 = Relu(a);
  for (int t : kThreadCounts) {
    ThreadPool::Global().SetNumThreads(t);
    EXPECT_TRUE(BitEqual(SoftmaxRows(a), softmax_ref)) << t << " threads";
    EXPECT_TRUE(BitEqual(Add(a, b), add1)) << t << " threads";
    EXPECT_TRUE(BitEqual(Mul(a, b), mul1)) << t << " threads";
    EXPECT_TRUE(BitEqual(Relu(a), relu1)) << t << " threads";
  }
}

TEST_F(ParallelTest, GraphNormalizationBitExactAcrossThreadCounts) {
  Rng rng(14);
  const CsrMatrix adj = RandomSparse(120, 120, 6, rng);
  ThreadPool::Global().SetNumThreads(1);
  const CsrMatrix sym1 = SymNormalize(adj);
  const CsrMatrix row1 = RowNormalize(adj);
  for (int t : kThreadCounts) {
    ThreadPool::Global().SetNumThreads(t);
    const CsrMatrix sym = SymNormalize(adj);
    const CsrMatrix row = RowNormalize(adj);
    ASSERT_EQ(sym.Nnz(), sym1.Nnz());
    ASSERT_EQ(row.Nnz(), row1.Nnz());
    EXPECT_EQ(std::memcmp(sym.values().data(), sym1.values().data(),
                          sym.values().size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(row.values().data(), row1.values().data(),
                          row.values().size() * sizeof(float)),
              0);
  }
}

TEST_F(ParallelTest, RowNormalizeKeepsZeroSumRows) {
  // A row whose values sum to 0 keeps its entries, each scaled by 0 (the
  // signs of v survive), as SymNormalize keeps its zero-degree rows, so the
  // structure is the input's. Rows 0 (11 entries: one 8-lane block and a
  // tail) and 2 sum to exactly 0; row 1 sums to 3.
  const CsrMatrix a = CsrMatrix::FromParts(
      3, 12, {0, 11, 13, 15}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 0, 5, 3, 4},
      {1.0f, -1.0f, 2.0f, -2.0f, 0.25f, -0.25f, 3.0f, -3.0f, 0.5f, -0.5f,
       -0.0f, 2.0f, 1.0f, -4.0f, 4.0f});
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  std::vector<float> first_tier;
  for (const simd::Tier tier : tiers) {
    simd::SetTier(tier);
    const CsrMatrix norm = RowNormalize(a);
    EXPECT_EQ(norm.row_ptr(), a.row_ptr()) << simd::TierName(tier);
    EXPECT_EQ(norm.col_idx(), a.col_idx()) << simd::TierName(tier);
    ASSERT_EQ(norm.values().size(), a.values().size());
    for (const int64_t r : {0, 2}) {
      for (int64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        const float want = a.values()[k] * 0.0f;
        EXPECT_EQ(std::memcmp(&norm.values()[k], &want, sizeof(float)), 0)
            << simd::TierName(tier) << " entry " << k;
      }
    }
    if (first_tier.empty()) {
      first_tier = norm.values();
    } else {
      EXPECT_EQ(std::memcmp(norm.values().data(), first_tier.data(),
                            first_tier.size() * sizeof(float)),
                0)
          << "the tiers disagree";
    }
  }
}

TEST_F(ParallelTest, ParallelForCoversRangeExactlyOnce) {
  for (int t : kThreadCounts) {
    ThreadPool::Global().SetNumThreads(t);
    for (int64_t n : {0, 1, 7, 1000, 4096}) {
      std::vector<int> hits(static_cast<size_t>(n), 0);
      ParallelFor(0, n, /*grain=*/3, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<size_t>(i)], 1)
            << "index " << i << " of " << n << " at " << t << " threads";
      }
    }
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  ThreadPool::Global().SetNumThreads(4);
  std::vector<int> hits(64, 0);
  ParallelFor(0, 8, /*grain=*/1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      ParallelFor(0, 8, /*grain=*/1, [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
          ++hits[static_cast<size_t>(i * 8 + j)];
        }
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(ParallelTest, SetNumThreadsClampsToOne) {
  ThreadPool::Global().SetNumThreads(0);
  EXPECT_EQ(ThreadPool::Global().NumThreads(), 1);
  ThreadPool::Global().SetNumThreads(-5);
  EXPECT_EQ(ThreadPool::Global().NumThreads(), 1);
  ThreadPool::Global().SetNumThreads(3);
  EXPECT_EQ(ThreadPool::Global().NumThreads(), 3);
}

TEST_F(ParallelTest, DefaultNumThreadsHonorsEnvVar) {
  ::setenv("MCOND_NUM_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3);
  ::setenv("MCOND_NUM_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);
  ::setenv("MCOND_NUM_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  ::setenv("MCOND_NUM_THREADS", "0", 1);
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  ::unsetenv("MCOND_NUM_THREADS");
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

TEST_F(ParallelTest, ScopedInlineParallelRegionForcesInlineExecution) {
  ThreadPool::Global().SetNumThreads(4);
  ScopedInlineParallelRegion inline_region;
  // Inline execution means the issuing thread runs every chunk itself, in
  // ascending range order — observable as strictly increasing begins with
  // no interleaving.
  std::vector<int64_t> begins;
  ParallelFor(0, 32, /*grain=*/1, [&](int64_t b, int64_t e) {
    begins.push_back(b);
    (void)e;
  });
  ASSERT_EQ(begins.size(), 1u);  // one inline call covering the whole range
  EXPECT_EQ(begins[0], 0);
}

TEST_F(ParallelTest, SetNumThreadsSafeWhileKernelsRun) {
  // The documented contract: SetNumThreads may be called from any thread
  // while other threads dispatch pooled kernels; it waits out the in-flight
  // job and resizes between dispatches. Results must stay correct (each
  // index covered exactly once) throughout the resize storm.
  ThreadPool::Global().SetNumThreads(4);
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    int width = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ThreadPool::Global().SetNumThreads(width);
      width = width % 4 + 1;
    }
  });
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::atomic<int>> hits(256);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    ParallelFor(0, 256, /*grain=*/3, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (int64_t i = 0; i < 256; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " on iteration " << iter;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
}

TEST_F(ParallelTest, TensorAllocators) {
  Tensor u = Tensor::Uninitialized(5, 7);
  EXPECT_EQ(u.rows(), 5);
  EXPECT_EQ(u.cols(), 7);
  const Tensor z = Tensor::ZeroedLike(u);
  EXPECT_EQ(z.rows(), 5);
  EXPECT_EQ(z.cols(), 7);
  for (int64_t i = 0; i < z.size(); ++i) EXPECT_EQ(z.data()[i], 0.0f);
}

TEST_F(ParallelTest, GrainFromCostScalesInversely) {
  EXPECT_GE(GrainFromCost(1), GrainFromCost(1000));
  EXPECT_GE(GrainFromCost(1000), 1);
  EXPECT_EQ(GrainFromCost(int64_t{1} << 16), 1);
}

// The determinism contract holds WITHIN the AVX2 tier too: chunk boundaries
// move with the thread count, but every output row's instruction sequence is
// a pure function of the row, so results are bit-identical across thread
// counts (just not vs the scalar oracle — that part is tolerance-bounded,
// see simd_test).
TEST_F(ParallelTest, SimdTierThreadCountsAgree) {
  if (!simd::Avx2Compiled() || !simd::CpuSupportsAvx2Fma()) {
    GTEST_SKIP() << "AVX2 tier unavailable on this build/host";
  }
  simd::SetTier(simd::Tier::kAvx2);
  Rng rng(23);
  for (const GemmShape& s : kGemmShapes) {
    const Tensor a = rng.NormalTensor(s.m, s.k);
    const Tensor b = rng.NormalTensor(s.k, s.n);
    ThreadPool::Global().SetNumThreads(1);
    const Tensor ref_mm = MatMul(a, b);
    const Tensor ref_sm = SoftmaxRows(a);
    for (int t : kThreadCounts) {
      ThreadPool::Global().SetNumThreads(t);
      EXPECT_TRUE(BitEqual(MatMul(a, b), ref_mm))
          << "shape " << s.m << "x" << s.k << "x" << s.n << " threads " << t;
      EXPECT_TRUE(BitEqual(SoftmaxRows(a), ref_sm))
          << "softmax rows " << s.m << " cols " << s.k << " threads " << t;
    }
  }
}

}  // namespace
}  // namespace mcond
