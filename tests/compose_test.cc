#include "graph/compose.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor_ops.h"

namespace mcond {
namespace {

TEST(ComposeTest, BlockLayout) {
  // base: 2 nodes with one edge; links: 1 incoming node attached to base
  // node 1; inter: empty.
  CsrMatrix base =
      CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  CsrMatrix links = CsrMatrix::FromTriplets(1, 2, {{0, 1, 2.0f}});
  CsrMatrix inter = CsrMatrix::FromTriplets(1, 1, {});
  CsrMatrix composed = ComposeBlockAdjacency(base, links, inter);
  ASSERT_EQ(composed.rows(), 3);
  EXPECT_EQ(composed.ToDense().At(0, 1), 1.0f);  // Base block preserved.
  EXPECT_EQ(composed.ToDense().At(2, 1), 2.0f);  // Bottom-left links.
  EXPECT_EQ(composed.ToDense().At(1, 2), 2.0f);  // Top-right = linksᵀ.
  EXPECT_EQ(composed.ToDense().At(2, 0), 0.0f);
  EXPECT_EQ(composed.Nnz(), 4);
}

TEST(ComposeTest, InterEdgesLandInBottomRight) {
  CsrMatrix base = CsrMatrix::FromTriplets(1, 1, {});
  CsrMatrix links = CsrMatrix::FromTriplets(2, 1, {});
  CsrMatrix inter =
      CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  CsrMatrix composed = ComposeBlockAdjacency(base, links, inter);
  EXPECT_EQ(composed.ToDense().At(1, 2), 1.0f);
  EXPECT_EQ(composed.ToDense().At(2, 1), 1.0f);
  EXPECT_EQ(composed.Nnz(), 2);
}

TEST(ComposeTest, ResultIsSymmetricForSymmetricInputs) {
  CsrMatrix base = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
  CsrMatrix links =
      CsrMatrix::FromTriplets(2, 3, {{0, 0, 1.0f}, {1, 2, 0.5f}});
  CsrMatrix inter =
      CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  Tensor d = ComposeBlockAdjacency(base, links, inter).ToDense();
  EXPECT_TRUE(AllClose(d, Transpose(d)));
}

TEST(ComposeTest, ShapeMismatchDies) {
  CsrMatrix base = CsrMatrix::FromTriplets(2, 2, {});
  CsrMatrix links = CsrMatrix::FromTriplets(1, 3, {});
  CsrMatrix inter = CsrMatrix::FromTriplets(1, 1, {});
  EXPECT_DEATH(ComposeBlockAdjacency(base, links, inter), "check");
}

TEST(ComposeTest, ComposeFeaturesStacks) {
  Tensor base = Tensor::Ones(2, 3);
  Tensor incoming = Tensor::Full(1, 3, 5.0f);
  Tensor all = ComposeFeatures(base, incoming);
  ASSERT_EQ(all.rows(), 3);
  EXPECT_EQ(all.At(2, 0), 5.0f);
  EXPECT_EQ(all.At(0, 0), 1.0f);
}

TEST(ComposeTest, DirectAssemblyMatchesTripletReferenceAtEveryWidth) {
  // ComposeBlockAdjacency assembles the block CSR directly with parallel
  // row copies; it must reproduce the naive triplet construction bit for
  // bit at any thread count (the determinism contract).
  Rng rng(31);
  const int64_t big_n = 120;
  const int64_t n_new = 17;
  std::vector<Triplet> base_t, links_t, inter_t;
  for (int64_t i = 0; i < big_n * 5; ++i) {
    base_t.push_back({rng.RandInt(0, big_n - 1), rng.RandInt(0, big_n - 1),
                      rng.Uniform(-1.0f, 1.0f)});
  }
  for (int64_t i = 0; i < n_new; ++i) {
    for (int64_t k = 0; k < 4; ++k) {
      links_t.push_back({i, rng.RandInt(0, big_n - 1),
                         rng.Uniform(0.1f, 1.0f)});
    }
  }
  for (int64_t i = 0; i < n_new * 2; ++i) {
    inter_t.push_back({rng.RandInt(0, n_new - 1),
                       rng.RandInt(0, n_new - 1),
                       rng.Uniform(0.1f, 1.0f)});
  }
  const CsrMatrix base = CsrMatrix::FromTriplets(big_n, big_n, base_t);
  const CsrMatrix links = CsrMatrix::FromTriplets(n_new, big_n, links_t);
  const CsrMatrix inter = CsrMatrix::FromTriplets(n_new, n_new, inter_t);

  // Reference: the same block layout via FromTriplets.
  std::vector<Triplet> all;
  for (int64_t r = 0; r < big_n; ++r) {
    for (int64_t k = base.row_ptr()[r]; k < base.row_ptr()[r + 1]; ++k) {
      all.push_back({r, base.col_idx()[static_cast<size_t>(k)],
                     base.values()[static_cast<size_t>(k)]});
    }
  }
  for (int64_t i = 0; i < n_new; ++i) {
    for (int64_t k = links.row_ptr()[i]; k < links.row_ptr()[i + 1]; ++k) {
      const int64_t j = links.col_idx()[static_cast<size_t>(k)];
      const float v = links.values()[static_cast<size_t>(k)];
      all.push_back({big_n + i, j, v});
      all.push_back({j, big_n + i, v});
    }
    for (int64_t k = inter.row_ptr()[i]; k < inter.row_ptr()[i + 1]; ++k) {
      all.push_back({big_n + i,
                     big_n + inter.col_idx()[static_cast<size_t>(k)],
                     inter.values()[static_cast<size_t>(k)]});
    }
  }
  const CsrMatrix expect =
      CsrMatrix::FromTriplets(big_n + n_new, big_n + n_new, all);

  for (const int threads : {1, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    const CsrMatrix got = ComposeBlockAdjacency(base, links, inter);
    EXPECT_EQ(got.row_ptr(), expect.row_ptr());
    EXPECT_EQ(got.col_idx(), expect.col_idx());
    EXPECT_EQ(got.values(), expect.values());  // Exact float equality.
  }
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}

TEST(ComposeTest, ComposeFeaturesBitIdenticalAcrossWidths) {
  Rng rng(33);
  const Tensor top = rng.NormalTensor(257, 19);
  const Tensor bottom = rng.NormalTensor(41, 19);
  ThreadPool::Global().SetNumThreads(1);
  const Tensor narrow = ComposeFeatures(top, bottom);
  ThreadPool::Global().SetNumThreads(8);
  const Tensor wide = ComposeFeatures(top, bottom);
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
  ASSERT_TRUE(narrow.SameShape(wide));
  EXPECT_EQ(std::memcmp(narrow.data(), wide.data(),
                        static_cast<size_t>(narrow.size()) * sizeof(float)),
            0);
}

}  // namespace
}  // namespace mcond
