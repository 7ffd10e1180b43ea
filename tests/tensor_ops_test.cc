#include "core/tensor_ops.h"

#include <array>
#include <cmath>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/simd.h"
#include "obs/metrics.h"

namespace mcond {
namespace {

Tensor T22(float a, float b, float c, float d) {
  return Tensor::FromVector(2, 2, {a, b, c, d});
}

TEST(TensorOpsTest, MatMulSmall) {
  Tensor a = T22(1, 2, 3, 4);
  Tensor b = T22(5, 6, 7, 8);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At(0, 0), 19.0f);
  EXPECT_EQ(c.At(0, 1), 22.0f);
  EXPECT_EQ(c.At(1, 0), 43.0f);
  EXPECT_EQ(c.At(1, 1), 50.0f);
}

TEST(TensorOpsTest, MatMulIdentity) {
  Rng rng(1);
  Tensor a = rng.NormalTensor(4, 4);
  EXPECT_TRUE(AllClose(MatMul(a, Tensor::Identity(4)), a));
  EXPECT_TRUE(AllClose(MatMul(Tensor::Identity(4), a), a));
}

TEST(TensorOpsTest, MatMulRectangular) {
  Rng rng(2);
  Tensor a = rng.NormalTensor(3, 5);
  Tensor b = rng.NormalTensor(5, 2);
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 3);
  ASSERT_EQ(c.cols(), 2);
  // Check one entry by hand.
  float expect = 0.0f;
  for (int64_t k = 0; k < 5; ++k) expect += a.At(1, k) * b.At(k, 1);
  EXPECT_NEAR(c.At(1, 1), expect, 1e-5f);
}

TEST(TensorOpsTest, MatMulTransAEqualsExplicitTranspose) {
  Rng rng(3);
  Tensor a = rng.NormalTensor(4, 3);
  Tensor b = rng.NormalTensor(4, 2);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b)));
}

TEST(TensorOpsTest, MatMulTransBEqualsExplicitTranspose) {
  Rng rng(4);
  Tensor a = rng.NormalTensor(4, 3);
  Tensor b = rng.NormalTensor(2, 3);
  EXPECT_TRUE(AllClose(MatMulTransB(a, b), MatMul(a, Transpose(b))));
}

// The three products share one GEMM body and pack their transposed operand;
// each call still records exactly one sample, under its own kernel only.
TEST(TensorOpsTest, GemmProductsCountOnceUnderTheirOwnKernel) {
  const simd::Tier saved = simd::ActiveTier();
  Rng rng(5);
  // 2·128·64·32 = 2^19 flops, above the kernel-stats floor.
  const Tensor a = rng.NormalTensor(128, 64);
  const Tensor b = rng.NormalTensor(64, 32);
  const Tensor at = Transpose(a);
  const Tensor bt = Transpose(b);
  const auto counts = [] {
    return std::array<int64_t, 3>{
        obs::GetHistogram("mcond.kernel.matmul_us").Count(),
        obs::GetHistogram("mcond.kernel.matmul_ta_us").Count(),
        obs::GetHistogram("mcond.kernel.matmul_tb_us").Count()};
  };
  const auto delta = [&](const std::array<int64_t, 3>& before) {
    const std::array<int64_t, 3> now = counts();
    return std::array<int64_t, 3>{now[0] - before[0], now[1] - before[1],
                                  now[2] - before[2]};
  };
  for (simd::Tier tier : {simd::Tier::kScalar, saved}) {
    simd::SetTier(tier);
    std::array<int64_t, 3> before = counts();
    MatMul(a, b);
    EXPECT_EQ(delta(before), (std::array<int64_t, 3>{1, 0, 0}));
    before = counts();
    MatMulTransA(at, b);
    EXPECT_EQ(delta(before), (std::array<int64_t, 3>{0, 1, 0}));
    before = counts();
    MatMulTransB(a, bt);
    EXPECT_EQ(delta(before), (std::array<int64_t, 3>{0, 0, 1}));
  }
  simd::SetTier(saved);
}

TEST(TensorOpsTest, MatMulShapeMismatchDies) {
  EXPECT_DEATH(MatMul(Tensor(2, 3), Tensor(2, 3)), "mismatch");
}

TEST(TensorOpsTest, ElementwiseArithmetic) {
  Tensor a = T22(1, 2, 3, 4);
  Tensor b = T22(4, 3, 2, 1);
  EXPECT_TRUE(AllClose(Add(a, b), Tensor::Full(2, 2, 5.0f)));
  EXPECT_EQ(Sub(a, b).At(0, 0), -3.0f);
  EXPECT_EQ(Mul(a, b).At(1, 0), 6.0f);
  EXPECT_EQ(Scale(a, 2.0f).At(1, 1), 8.0f);
}

TEST(TensorOpsTest, AxpyInPlace) {
  Tensor a = Tensor::Ones(2, 2);
  Tensor b = T22(1, 2, 3, 4);
  AxpyInPlace(a, 2.0f, b);
  EXPECT_EQ(a.At(0, 0), 3.0f);
  EXPECT_EQ(a.At(1, 1), 9.0f);
}

TEST(TensorOpsTest, AddRowBroadcast) {
  Tensor a = T22(1, 2, 3, 4);
  Tensor row = Tensor::FromVector(1, 2, {10.0f, 20.0f});
  Tensor out = AddRowBroadcast(a, row);
  EXPECT_EQ(out.At(0, 0), 11.0f);
  EXPECT_EQ(out.At(1, 1), 24.0f);
}

TEST(TensorOpsTest, TransposeRoundTrip) {
  Rng rng(5);
  Tensor a = rng.NormalTensor(3, 5);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a));
  EXPECT_EQ(Transpose(a).At(4, 2), a.At(2, 4));
}

TEST(TensorOpsTest, ReluAndMask) {
  Tensor a = T22(-1, 2, -3, 4);
  Tensor r = Relu(a);
  EXPECT_EQ(r.At(0, 0), 0.0f);
  EXPECT_EQ(r.At(0, 1), 2.0f);
  Tensor m = ReluMask(a);
  EXPECT_EQ(m.At(1, 0), 0.0f);
  EXPECT_EQ(m.At(1, 1), 1.0f);
}

TEST(TensorOpsTest, SigmoidRangeAndSymmetry) {
  Tensor a = T22(-100, 0, 100, 2);
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.At(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.At(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(s.At(1, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(s.At(1, 1) + Sigmoid(Scale(a, -1.0f)).At(1, 1), 1.0f, 1e-6f);
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  Rng rng(6);
  Tensor a = rng.NormalTensor(4, 7, 0.0f, 10.0f);
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GE(s.At(i, j), 0.0f);
      sum += s.At(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxStableUnderLargeLogits) {
  Tensor a = Tensor::FromVector(1, 3, {1000.0f, 1000.0f, 900.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_TRUE(s.AllFinite());
  EXPECT_NEAR(s.At(0, 0), 0.5f, 1e-5f);
}

TEST(TensorOpsTest, ArgmaxRows) {
  Tensor a = Tensor::FromVector(2, 3, {1, 5, 2, 7, 0, 3});
  const std::vector<int64_t> idx = ArgmaxRows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(TensorOpsTest, Reductions) {
  Tensor a = T22(1, 2, 3, 4);
  EXPECT_EQ(Sum(a), 10.0f);
  EXPECT_NEAR(FrobeniusNorm(a), std::sqrt(30.0f), 1e-5f);
  EXPECT_EQ(RowSum(a).At(0, 0), 3.0f);
  EXPECT_EQ(RowSum(a).At(1, 0), 7.0f);
  EXPECT_EQ(ColSum(a).At(0, 1), 6.0f);
}

TEST(TensorOpsTest, NormReductions) {
  Tensor a = Tensor::FromVector(2, 2, {3, 4, 0, 0});
  EXPECT_NEAR(RowL2Norm(a).At(0, 0), 5.0f, 1e-6f);
  EXPECT_EQ(RowL2Norm(a).At(1, 0), 0.0f);
}

TEST(TensorOpsTest, ConcatRowsAndCols) {
  Tensor a = Tensor::Ones(2, 3);
  Tensor b = Tensor::Full(1, 3, 2.0f);
  Tensor v = ConcatRows(a, b);
  ASSERT_EQ(v.rows(), 3);
  EXPECT_EQ(v.At(2, 0), 2.0f);
  Tensor c = Tensor::Full(2, 1, 3.0f);
  Tensor h = ConcatCols(a, c);
  ASSERT_EQ(h.cols(), 4);
  EXPECT_EQ(h.At(1, 3), 3.0f);
  EXPECT_EQ(h.At(1, 0), 1.0f);
}

TEST(TensorOpsTest, SliceGatherScatter) {
  Tensor a = Tensor::FromVector(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(a, 1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.At(0, 0), 3.0f);
  Tensor g = GatherRows(a, {2, 0, 0});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.At(0, 1), 6.0f);
  EXPECT_EQ(g.At(2, 0), 1.0f);
  Tensor dst(3, 2);
  ScatterRowsInPlace(dst, 1, Tensor::Full(2, 2, 9.0f));
  EXPECT_EQ(dst.At(0, 0), 0.0f);
  EXPECT_EQ(dst.At(2, 1), 9.0f);
}

TEST(TensorOpsTest, AllCloseTolerances) {
  Tensor a = Tensor::Ones(2, 2);
  Tensor b = Tensor::Full(2, 2, 1.0000001f);
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = Tensor::Full(2, 2, 1.1f);
  EXPECT_FALSE(AllClose(a, c));
  EXPECT_FALSE(AllClose(Tensor(2, 2), Tensor(2, 3)));
}

TEST(TensorOpsTest, MaxAbsDiff) {
  EXPECT_NEAR(MaxAbsDiff(T22(1, 2, 3, 4), T22(1, 2, 3, 6)), 2.0f, 1e-6f);
}

}  // namespace
}  // namespace mcond
