#include "core/csr_matrix.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/tensor_ops.h"

namespace mcond {
namespace {

CsrMatrix SmallGraph() {
  // 0-1, 0-2, 1-2 undirected triangle plus isolated node 3.
  return CsrMatrix::FromTriplets(4, 4,
                                 {{0, 1, 1.0f},
                                  {1, 0, 1.0f},
                                  {0, 2, 1.0f},
                                  {2, 0, 1.0f},
                                  {1, 2, 1.0f},
                                  {2, 1, 1.0f}});
}

TEST(CsrMatrixTest, EmptyDefault) {
  CsrMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.Nnz(), 0);
}

TEST(CsrMatrixTest, FromTripletsSortsAndLooksUp) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{2, 1, 5.0f}, {0, 2, 1.0f}, {0, 0, 2.0f}});
  EXPECT_EQ(m.Nnz(), 3);
  EXPECT_EQ(m.At(0, 0), 2.0f);
  EXPECT_EQ(m.At(0, 2), 1.0f);
  EXPECT_EQ(m.At(2, 1), 5.0f);
  EXPECT_EQ(m.At(1, 1), 0.0f);
}

TEST(CsrMatrixTest, DuplicatesAreSummed) {
  CsrMatrix m =
      CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {0, 1, 2.5f}});
  EXPECT_EQ(m.Nnz(), 1);
  EXPECT_EQ(m.At(0, 1), 3.5f);
}

TEST(CsrMatrixTest, OutOfRangeTripletDies) {
  EXPECT_DEATH(CsrMatrix::FromTriplets(2, 2, {{2, 0, 1.0f}}), "out of");
}

TEST(CsrMatrixTest, FromPartsValidatesCanonicalForm) {
  std::vector<int64_t> row_ptr = {0, 1, 2};
  std::vector<int32_t> col_idx = {0, 1};
  std::vector<float> values = {1.0f, 2.0f};
  CsrMatrix m = CsrMatrix::FromParts(2, 2, row_ptr, col_idx, values);
  EXPECT_EQ(m.Nnz(), 2);
  // Non-monotone row_ptr, unsorted columns, out-of-range columns.
  EXPECT_DEATH(CsrMatrix::FromParts(3, 2, {0, 2, 1, 2}, col_idx, values),
               "non-decreasing");
  EXPECT_DEATH(CsrMatrix::FromParts(1, 2, {0, 2}, {1, 0}, values),
               "ascending");
  EXPECT_DEATH(CsrMatrix::FromParts(2, 2, row_ptr, {0, 5}, values),
               "out of range");
}

#ifndef NDEBUG
TEST(CsrMatrixTest, FromPartsDebugBuildsValidateEvenWhenAskedNotTo) {
  // validate=false is a release-mode fast path only: debug builds must
  // still reject a non-monotone row_ptr rather than hand corrupt arrays
  // to every downstream kernel.
  EXPECT_DEATH(CsrMatrix::FromParts(3, 2, {0, 2, 1, 2}, {0, 1}, {1.0f, 2.0f},
                                    /*validate=*/false),
               "non-decreasing");
}
#endif

TEST(CsrMatrixTest, Identity) {
  CsrMatrix id = CsrMatrix::Identity(3);
  EXPECT_EQ(id.Nnz(), 3);
  EXPECT_EQ(id.At(1, 1), 1.0f);
  EXPECT_EQ(id.At(0, 1), 0.0f);
}

TEST(CsrMatrixTest, RowNnzAndHasEntry) {
  CsrMatrix g = SmallGraph();
  EXPECT_EQ(g.RowNnz(0), 2);
  EXPECT_EQ(g.RowNnz(3), 0);
  EXPECT_TRUE(g.HasEntry(1, 2));
  EXPECT_FALSE(g.HasEntry(3, 0));
}

TEST(CsrMatrixTest, RowSums) {
  CsrMatrix g = SmallGraph();
  const std::vector<float> sums = g.RowSums();
  EXPECT_EQ(sums[0], 2.0f);
  EXPECT_EQ(sums[3], 0.0f);
}

TEST(CsrMatrixTest, SpMMMatchesDense) {
  Rng rng(7);
  Tensor dense = rng.NormalTensor(5, 5);
  // Sparsify ~half the entries.
  for (int64_t i = 0; i < dense.size(); ++i) {
    if (rng.Bernoulli(0.5)) dense.data()[i] = 0.0f;
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Tensor x = rng.NormalTensor(5, 3);
  EXPECT_TRUE(AllClose(sparse.SpMM(x), MatMul(dense, x), 1e-4f, 1e-5f));
}

TEST(CsrMatrixTest, SpMMTransposedMatchesDense) {
  Rng rng(8);
  Tensor dense = rng.NormalTensor(4, 6);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Tensor x = rng.NormalTensor(4, 2);
  EXPECT_TRUE(AllClose(sparse.SpMMTransposed(x),
                       MatMul(Transpose(dense), x), 1e-4f, 1e-5f));
}

TEST(CsrMatrixTest, TransposeMatchesDense) {
  Rng rng(9);
  Tensor dense = rng.NormalTensor(3, 5);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_TRUE(AllClose(sparse.Transpose().ToDense(), Transpose(dense)));
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  Rng rng(10);
  Tensor da = rng.NormalTensor(4, 5);
  Tensor db = rng.NormalTensor(5, 3);
  for (int64_t i = 0; i < da.size(); ++i) {
    if (rng.Bernoulli(0.6)) da.data()[i] = 0.0f;
  }
  for (int64_t i = 0; i < db.size(); ++i) {
    if (rng.Bernoulli(0.6)) db.data()[i] = 0.0f;
  }
  CsrMatrix a = CsrMatrix::FromDense(da);
  CsrMatrix b = CsrMatrix::FromDense(db);
  EXPECT_TRUE(AllClose(CsrMatrix::Multiply(a, b).ToDense(), MatMul(da, db),
                       1e-4f, 1e-5f));
}

TEST(CsrMatrixTest, ToDenseRoundTrip) {
  CsrMatrix g = SmallGraph();
  EXPECT_TRUE(AllClose(CsrMatrix::FromDense(g.ToDense()).ToDense(),
                       g.ToDense()));
}

TEST(CsrMatrixTest, ScaledMultipliesValues) {
  CsrMatrix g = SmallGraph().Scaled(2.0f);
  EXPECT_EQ(g.At(0, 1), 2.0f);
}

TEST(CsrMatrixTest, ThresholdedDropsSmallEntries) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 0.1f}, {0, 1, 0.5f}, {1, 1, 0.9f}});
  CsrMatrix t = m.Thresholded(0.5f);
  EXPECT_EQ(t.Nnz(), 2);
  EXPECT_EQ(t.At(0, 0), 0.0f);
  EXPECT_EQ(t.At(0, 1), 0.5f);  // Boundary kept (>= threshold).
}

TEST(CsrMatrixTest, FromDenseDropTolerance) {
  Tensor d = Tensor::FromVector(1, 3, {0.0f, 1e-8f, 0.5f});
  EXPECT_EQ(CsrMatrix::FromDense(d, 1e-6f).Nnz(), 1);
  EXPECT_EQ(CsrMatrix::FromDense(d, 0.0f).Nnz(), 2);
}

TEST(CsrMatrixTest, FromDenseAndThresholdedMatchTripletRoute) {
  // The triplet route (collect, sort, build) is the oracle for the direct
  // row-major builds: same row_ptr, col_idx and value bits. Rows 2 and 5 end
  // up empty, and ±0 entries, negatives and threshold ties all occur.
  Rng rng(31);
  Tensor d = rng.NormalTensor(7, 9);
  for (int64_t j = 0; j < d.cols(); ++j) {
    d.At(2, j) = 0.0f;
    d.At(5, j) = -0.25f;
  }
  d.At(0, 0) = -0.0f;
  d.At(1, 3) = 0.0f;
  d.At(3, 4) = 0.25f;
  d.At(6, 8) = 0.25f;
  auto triplet_route = [&](float drop_tol, float threshold) {
    std::vector<Triplet> t;
    for (int64_t i = 0; i < d.rows(); ++i) {
      for (int64_t j = 0; j < d.cols(); ++j) {
        const float v = d.At(i, j);
        if (std::fabs(v) > drop_tol && v >= threshold) t.push_back({i, j, v});
      }
    }
    return CsrMatrix::FromTriplets(d.rows(), d.cols(), std::move(t));
  };
  auto expect_same = [](const CsrMatrix& got, const CsrMatrix& want) {
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got.cols(), want.cols());
    EXPECT_EQ(got.row_ptr(), want.row_ptr());
    EXPECT_EQ(got.col_idx(), want.col_idx());
    ASSERT_EQ(got.values().size(), want.values().size());
    EXPECT_EQ(0, std::memcmp(got.values().data(), want.values().data(),
                             got.values().size() * sizeof(float)));
  };
  const float kNoThreshold = -std::numeric_limits<float>::infinity();
  for (const float drop_tol : {0.0f, 0.3f}) {
    expect_same(CsrMatrix::FromDense(d, drop_tol),
                triplet_route(drop_tol, kNoThreshold));
    for (const float threshold : {-0.25f, 0.25f, 10.0f}) {
      expect_same(CsrMatrix::FromDense(d, drop_tol).Thresholded(threshold),
                  triplet_route(drop_tol, threshold));
    }
  }
}

TEST(CsrMatrixTest, StorageBytesCountsAllArrays) {
  CsrMatrix g = SmallGraph();
  const int64_t expect = 6 * 4 + 6 * 4 + 5 * 8;
  EXPECT_EQ(g.StorageBytes(), expect);
}

TEST(CsrMatrixTest, EmptyRowsHandled) {
  CsrMatrix m = CsrMatrix::FromTriplets(5, 5, {{4, 0, 1.0f}});
  EXPECT_EQ(m.RowNnz(0), 0);
  EXPECT_EQ(m.RowNnz(4), 1);
  Tensor x = Tensor::Ones(5, 2);
  Tensor y = m.SpMM(x);
  EXPECT_EQ(y.At(0, 0), 0.0f);
  EXPECT_EQ(y.At(4, 0), 1.0f);
}

}  // namespace
}  // namespace mcond
