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
  EXPECT_EQ(m.ToDense().At(0, 0), 2.0f);
  EXPECT_EQ(m.ToDense().At(0, 2), 1.0f);
  EXPECT_EQ(m.ToDense().At(2, 1), 5.0f);
  EXPECT_EQ(m.ToDense().At(1, 1), 0.0f);
}

TEST(CsrMatrixTest, DuplicatesAreSummed) {
  CsrMatrix m =
      CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {0, 1, 2.5f}});
  EXPECT_EQ(m.Nnz(), 1);
  EXPECT_EQ(m.ToDense().At(0, 1), 3.5f);
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
  EXPECT_EQ(id.ToDense().At(1, 1), 1.0f);
  EXPECT_EQ(id.ToDense().At(0, 1), 0.0f);
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

TEST(CsrMatrixTest, ThresholdedDropsSmallEntries) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 2, {{0, 0, 0.1f}, {0, 1, 0.5f}, {1, 1, 0.9f}});
  CsrMatrix t = m.Thresholded(0.5f);
  EXPECT_EQ(t.Nnz(), 2);
  EXPECT_EQ(t.ToDense().At(0, 0), 0.0f);
  EXPECT_EQ(t.ToDense().At(0, 1), 0.5f);  // Boundary kept (>= threshold).
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
    // Thresholding at 10 leaves no entries: memcmp must not see the null
    // data() of an empty vector.
    if (!want.values().empty()) {
      EXPECT_EQ(0, std::memcmp(got.values().data(), want.values().data(),
                               got.values().size() * sizeof(float)));
    }
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

/// Same shape, and every element memcmp-equal, except that a NaN need only
/// meet a NaN. When two NaNs meet in an add, x86 returns the first
/// operand's, and C++ leaves the operand order to the compiler: the
/// oracles compute product + sum (their sums live in memory), the kernel
/// sum + product (its sums live in registers). So where inf·0 (the default
/// NaN, sign bit set) meets a +NaN input, the two keep different signs.
::testing::AssertionResult SameBits(const Tensor& got, const Tensor& want) {
  if (!got.SameShape(want)) return ::testing::AssertionFailure() << "shape";
  for (int64_t i = 0; i < want.size(); ++i) {
    const float g = got.data()[i], w = want.data()[i];
    if (std::isnan(w) ? !std::isnan(g)
                      : std::memcmp(&g, &w, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "bits differ at flat index " << i << ": " << g << " vs " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

// The one SpMM row kernel against the serial oracles, bit for bit. The
// widths run every tile and tail: the scalar tail alone (1, 5), one or more
// 8-column tiles (8, 20, 31), the 32-column tile with and without 8-column
// tiles and a tail (32, 33, 40, 100). Row 4 is empty, and NaN, ±0 and ±inf
// sit among the stored values and in X.
TEST(CsrMatrixTest, SpMMMatchesSerialOracleBitForBit) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {std::nanf(""), 0.0f, -0.0f, inf, -inf};
  Rng rng(37);
  constexpr int64_t kRows = 23, kCols = 19;
  std::vector<Triplet> t;
  for (int64_t r = 0; r < kRows; ++r) {
    if (r == 4) continue;
    for (const int64_t c : rng.SampleWithoutReplacement(kCols, 6)) {
      t.push_back({r, c, rng.Normal()});
    }
  }
  for (size_t i = 0; i < 5; ++i) t[7 * i + 3].value = specials[i];
  const CsrMatrix m = CsrMatrix::FromTriplets(kRows, kCols, std::move(t));
  ASSERT_EQ(m.RowNnz(4), 0);
  for (int64_t d : {1, 5, 8, 20, 31, 32, 33, 40, 100}) {
    Tensor x = rng.NormalTensor(kCols, d);
    Tensor xt = rng.NormalTensor(kRows, d);
    for (int64_t i = 0; i < 5; ++i) {
      x.data()[(i * 131) % x.size()] = specials[i];
      xt.data()[(i * 97 + 11) % xt.size()] = specials[i];
    }
    const Tensor want = m.SpMMSerial(x);
    EXPECT_TRUE(SameBits(m.SpMM(x), want)) << "SpMM d " << d;
    EXPECT_TRUE(SameBits(m.SpMMTransposed(xt), m.SpMMTransposedSerial(xt)))
        << "SpMMTransposed d " << d;
    // A row-range view, as a streamed segment pass runs it: rows [3, 17)
    // land at y + (r - 3)·d, equal to those rows of the whole product.
    const CsrView rows = m.View().Rows(3, 17);
    Tensor part = Tensor::Full(rows.NumRows(), d, std::nanf(""));
    SpMM(rows, x, part.data());
    Tensor want_rows(rows.NumRows(), d);
    std::memcpy(want_rows.data(), want.RowData(3),
                static_cast<size_t>(want_rows.size()) * sizeof(float));
    EXPECT_TRUE(SameBits(part, want_rows)) << "rows [3, 17) d " << d;
  }
}

}  // namespace
}  // namespace mcond
