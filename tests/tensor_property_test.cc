// Property-based tests over random dense tensors: algebraic identities the
// kernels must satisfy for every shape, swept with parameterized gtest.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/tensor_ops.h"

namespace mcond {
namespace {

struct Shape {
  int64_t m;
  int64_t k;
  int64_t n;
};

class TensorAlgebraTest : public ::testing::TestWithParam<Shape> {
 protected:
  Rng rng_{static_cast<uint64_t>(GetParam().m * 1000 + GetParam().k * 10 +
                                 GetParam().n)};
};

TEST_P(TensorAlgebraTest, MatMulAssociativity) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.k);
  Tensor b = rng_.NormalTensor(s.k, s.n);
  Tensor c = rng_.NormalTensor(s.n, s.k);
  EXPECT_TRUE(AllClose(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)),
                       1e-3f, 1e-3f));
}

TEST_P(TensorAlgebraTest, MatMulDistributesOverAdd) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.k);
  Tensor b1 = rng_.NormalTensor(s.k, s.n);
  Tensor b2 = rng_.NormalTensor(s.k, s.n);
  EXPECT_TRUE(AllClose(MatMul(a, Add(b1, b2)),
                       Add(MatMul(a, b1), MatMul(a, b2)), 1e-3f, 1e-3f));
}

TEST_P(TensorAlgebraTest, TransposeOfProduct) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.k);
  Tensor b = rng_.NormalTensor(s.k, s.n);
  EXPECT_TRUE(AllClose(Transpose(MatMul(a, b)),
                       MatMul(Transpose(b), Transpose(a)), 1e-3f, 1e-3f));
}

TEST_P(TensorAlgebraTest, ScaleCommutesWithMatMul) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.k);
  Tensor b = rng_.NormalTensor(s.k, s.n);
  EXPECT_TRUE(AllClose(MatMul(Scale(a, 2.5f), b),
                       Scale(MatMul(a, b), 2.5f), 1e-3f, 1e-3f));
}

TEST_P(TensorAlgebraTest, FrobeniusNormSubmultiplicative) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.k);
  Tensor b = rng_.NormalTensor(s.k, s.n);
  EXPECT_LE(FrobeniusNorm(MatMul(a, b)),
            FrobeniusNorm(a) * FrobeniusNorm(b) + 1e-3f);
}

TEST_P(TensorAlgebraTest, RowColSumConsistency) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.n);
  EXPECT_NEAR(Sum(RowSum(a)), Sum(a), 1e-3f * std::max<float>(1.0f, std::fabs(Sum(a))));
  EXPECT_NEAR(Sum(ColSum(a)), Sum(a), 1e-3f * std::max<float>(1.0f, std::fabs(Sum(a))));
}

TEST_P(TensorAlgebraTest, L21SandwichedByFrobenius) {
  // ||A||_F <= ||A||_{2,1} <= sqrt(rows) ||A||_F.
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.n);
  const float fro = FrobeniusNorm(a);
  const float l21 = Sum(RowL2Norm(a));
  EXPECT_GE(l21, fro - 1e-4f);
  EXPECT_LE(l21, std::sqrt(static_cast<float>(s.m)) * fro + 1e-3f);
}

TEST_P(TensorAlgebraTest, ConcatSliceRoundTrip) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.n);
  Tensor b = rng_.NormalTensor(s.k, s.n);
  Tensor joined = ConcatRows(a, b);
  EXPECT_TRUE(AllClose(SliceRows(joined, 0, s.m), a));
  EXPECT_TRUE(AllClose(SliceRows(joined, s.m, s.m + s.k), b));
}

TEST_P(TensorAlgebraTest, SoftmaxInvariantToRowShift) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.n);
  Tensor shifted = a;
  for (int64_t i = 0; i < s.m; ++i) {
    const float c = rng_.Uniform(-5.0f, 5.0f);
    float* row = shifted.RowData(i);
    for (int64_t j = 0; j < s.n; ++j) row[j] += c;
  }
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(shifted), 1e-4f, 1e-5f));
}

TEST_P(TensorAlgebraTest, ReluIdempotent) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.n);
  EXPECT_TRUE(AllClose(Relu(Relu(a)), Relu(a)));
}

TEST_P(TensorAlgebraTest, SigmoidComplement) {
  // σ(x) + σ(−x) = 1.
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m, s.n, 0.0f, 3.0f);
  Tensor sum = Add(Sigmoid(a), Sigmoid(Scale(a, -1.0f)));
  EXPECT_TRUE(AllClose(sum, Tensor::Ones(s.m, s.n), 1e-4f, 1e-5f));
}

TEST_P(TensorAlgebraTest, GatherIsSliceForContiguousIndices) {
  const Shape s = GetParam();
  Tensor a = rng_.NormalTensor(s.m + 2, s.n);
  std::vector<int64_t> idx;
  for (int64_t i = 1; i <= s.m; ++i) idx.push_back(i);
  EXPECT_TRUE(AllClose(GatherRows(a, idx), SliceRows(a, 1, s.m + 1)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorAlgebraTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4}, Shape{5, 5, 5},
                      Shape{7, 2, 9}, Shape{16, 8, 4}, Shape{1, 10, 1},
                      Shape{12, 1, 12}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "m" + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

}  // namespace
}  // namespace mcond
