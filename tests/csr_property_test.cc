// Property tests over random sparse matrices at several shapes and
// densities: every sparse kernel must agree with its dense reference and
// satisfy the usual linear-algebra identities.
#include <gtest/gtest.h>

#include "core/csr_matrix.h"
#include "core/rng.h"
#include "core/tensor_ops.h"
#include "graph/graph.h"

namespace mcond {
namespace {

struct SparseCase {
  int64_t rows;
  int64_t cols;
  double density;
};

class CsrPropertyTest : public ::testing::TestWithParam<SparseCase> {
 protected:
  CsrPropertyTest()
      : rng_(static_cast<uint64_t>(GetParam().rows * 131 + GetParam().cols +
                                   GetParam().density * 1000)) {}

  Tensor RandomSparseDense(int64_t rows, int64_t cols) {
    Tensor t(rows, cols);
    for (int64_t i = 0; i < t.size(); ++i) {
      if (rng_.Bernoulli(GetParam().density)) {
        t.data()[i] = rng_.Normal(0.0f, 1.0f);
      }
    }
    return t;
  }

  Rng rng_;
};

TEST_P(CsrPropertyTest, DenseRoundTrip) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  EXPECT_TRUE(AllClose(m.ToDense(), d));
  // Every stored entry is nonzero by construction.
  for (float v : m.values()) EXPECT_NE(v, 0.0f);
}

TEST_P(CsrPropertyTest, SpMMAgainstDense) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  Tensor x = rng_.NormalTensor(GetParam().cols, 3);
  EXPECT_TRUE(AllClose(m.SpMM(x), MatMul(d, x), 1e-3f, 1e-4f));
}

TEST_P(CsrPropertyTest, SpMMLinearity) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  Tensor x = rng_.NormalTensor(GetParam().cols, 2);
  Tensor y = rng_.NormalTensor(GetParam().cols, 2);
  EXPECT_TRUE(AllClose(m.SpMM(Add(x, Scale(y, 2.0f))),
                       Add(m.SpMM(x), Scale(m.SpMM(y), 2.0f)), 1e-3f,
                       1e-4f));
}

TEST_P(CsrPropertyTest, TransposeInvolution) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  EXPECT_TRUE(AllClose(m.Transpose().Transpose().ToDense(), d));
}

TEST_P(CsrPropertyTest, TransposedSpMMAgreesWithTranspose) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  Tensor x = rng_.NormalTensor(GetParam().rows, 2);
  EXPECT_TRUE(AllClose(m.SpMMTransposed(x), m.Transpose().SpMM(x), 1e-3f,
                       1e-4f));
}

TEST_P(CsrPropertyTest, SpGemmAgainstDense) {
  Tensor da = RandomSparseDense(GetParam().rows, GetParam().cols);
  Tensor db = RandomSparseDense(GetParam().cols, GetParam().rows);
  CsrMatrix a = CsrMatrix::FromDense(da);
  CsrMatrix b = CsrMatrix::FromDense(db);
  EXPECT_TRUE(AllClose(CsrMatrix::Multiply(a, b).ToDense(), MatMul(da, db),
                       1e-3f, 1e-4f));
}

TEST_P(CsrPropertyTest, ThresholdMonotone) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  // Make values nonnegative so thresholds act predictably (Eq. 14 is used
  // on nonnegative matrices); squaring keeps the sparsity pattern.
  CsrMatrix m = CsrMatrix::FromDense(Mul(d, d));
  int64_t prev = m.Nnz();
  for (float t : {0.1f, 0.5f, 1.0f, 2.0f}) {
    const int64_t now = m.Thresholded(t).Nnz();
    EXPECT_LE(now, prev);
    prev = now;
  }
}

TEST_P(CsrPropertyTest, RowSumsMatchDense) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  const std::vector<float> sums = m.RowSums();
  const Tensor dense_sums = RowSum(d);
  for (int64_t i = 0; i < GetParam().rows; ++i) {
    EXPECT_NEAR(sums[static_cast<size_t>(i)], dense_sums.At(i, 0), 1e-4f);
  }
}

TEST_P(CsrPropertyTest, StorageAccountsEveryArray) {
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  CsrMatrix m = CsrMatrix::FromDense(d);
  EXPECT_EQ(m.StorageBytes(),
            m.Nnz() * 4 + m.Nnz() * 4 + (m.rows() + 1) * 8);
}

class SquareCsrPropertyTest : public CsrPropertyTest {};

TEST_P(SquareCsrPropertyTest, SymNormalizePreservesSparsityPattern) {
  if (GetParam().rows != GetParam().cols) GTEST_SKIP();
  // Build a symmetric nonnegative adjacency.
  Tensor d = RandomSparseDense(GetParam().rows, GetParam().cols);
  d = Add(d, Transpose(d));
  d = Mul(d, d);
  for (int64_t i = 0; i < GetParam().rows; ++i) d.At(i, i) = 0.0f;
  CsrMatrix a = CsrMatrix::FromDense(d);
  CsrMatrix norm = SymNormalize(a);
  // Everything A has plus exactly the self-loops.
  int64_t missing_diag = 0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    if (!a.HasEntry(i, i)) ++missing_diag;
  }
  EXPECT_EQ(norm.Nnz(), a.Nnz() + missing_diag);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsrPropertyTest,
    ::testing::Values(SparseCase{5, 5, 0.3}, SparseCase{10, 4, 0.5},
                      SparseCase{4, 12, 0.2}, SparseCase{20, 20, 0.1},
                      SparseCase{8, 8, 0.9}, SparseCase{15, 3, 0.05},
                      SparseCase{1, 1, 1.0}),
    [](const ::testing::TestParamInfo<SparseCase>& info) {
      return "r" + std::to_string(info.param.rows) + "c" +
             std::to_string(info.param.cols) + "d" +
             std::to_string(static_cast<int>(info.param.density * 100));
    });

INSTANTIATE_TEST_SUITE_P(
    Square, SquareCsrPropertyTest,
    ::testing::Values(SparseCase{6, 6, 0.4}, SparseCase{12, 12, 0.15}),
    [](const ::testing::TestParamInfo<SparseCase>& info) {
      return "n" + std::to_string(info.param.rows) + "d" +
             std::to_string(static_cast<int>(info.param.density * 100));
    });

}  // namespace
}  // namespace mcond
