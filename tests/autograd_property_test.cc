// Property tests of the autograd engine: gradients of composite
// expressions must pass finite-difference checks across shapes, and the
// engine must obey linearity / accumulation semantics exactly.
#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/rng.h"
#include "core/tensor_ops.h"
#include "gradcheck.h"

namespace mcond {
namespace {

using testing::ExpectGradientsMatch;

struct GradShape {
  int64_t rows;
  int64_t cols;
};

class AutogradPropertyTest : public ::testing::TestWithParam<GradShape> {
 protected:
  AutogradPropertyTest()
      : rng_(static_cast<uint64_t>(GetParam().rows * 37 + GetParam().cols)) {}
  Rng rng_;
};

TEST_P(AutogradPropertyTest, CompositeMlpLikeExpression) {
  const GradShape s = GetParam();
  Variable x = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  Variable w = MakeVariable(rng_.NormalTensor(s.cols, 3), true);
  Variable b = MakeVariable(rng_.NormalTensor(1, 3, 0.0f, 0.1f), true);
  ExpectGradientsMatch(
      {x, w, b},
      [&] {
        Variable h = ops::Sigmoid(
            ops::AddRowBroadcast(ops::MatMul(x, w), b));
        return ops::Scale(ops::SumAll(ops::Mul(h, h)),
                          1.0f / static_cast<float>(h->value().size()));
      },
      /*eps=*/5e-3f, /*rel_tol=*/0.08f, /*abs_tol=*/4e-3f);
}

TEST_P(AutogradPropertyTest, NormalizationChain) {
  // The Eq. (15)-style chain: sigmoid → row-normalize → shift → relu.
  const GradShape s = GetParam();
  Variable m = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  ExpectGradientsMatch(
      {m},
      [&] {
        Variable sig = ops::Sigmoid(m);
        Variable norm = ops::DivRowBroadcast(sig, ops::RowSum(sig));
        Variable cut = ops::Relu(ops::AddScalar(norm, -0.01f));
        return ops::SumAll(ops::Mul(cut, cut));
      },
      /*eps=*/2e-3f, /*rel_tol=*/0.08f, /*abs_tol=*/4e-3f);
}

TEST_P(AutogradPropertyTest, MixedNormLosses) {
  const GradShape s = GetParam();
  Variable a = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  Variable b = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  ExpectGradientsMatch({a, b}, [&] {
    return ops::Add(ops::L21Norm(ops::Sub(a, b)),
                    ops::Scale(ops::CosineColumnDistance(a, b), 0.5f));
  });
}

TEST_P(AutogradPropertyTest, GradientOfSumIsLinear) {
  // d(αL1 + βL2)/dx == α dL1/dx + β dL2/dx, computed exactly by the tape.
  const GradShape s = GetParam();
  Tensor x0 = rng_.NormalTensor(s.rows, s.cols);
  auto grad_of = [&](float alpha, float beta) {
    Variable x = MakeVariable(x0, true);
    Variable l1 = ops::SumAll(ops::Mul(x, x));
    Variable l2 = ops::SumAll(ops::Sigmoid(x));
    Backward(ops::Add(ops::Scale(l1, alpha), ops::Scale(l2, beta)));
    return x->grad();
  };
  const Tensor g_combined = grad_of(2.0f, 3.0f);
  const Tensor g1 = grad_of(1.0f, 0.0f);
  const Tensor g2 = grad_of(0.0f, 1.0f);
  Tensor expect = Add(Scale(g1, 2.0f), Scale(g2, 3.0f));
  EXPECT_TRUE(AllClose(g_combined, expect, 1e-4f, 1e-5f));
}

TEST_P(AutogradPropertyTest, TwoBackwardsAccumulate) {
  const GradShape s = GetParam();
  Variable x = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  Variable loss1 = ops::SumAll(x);
  Backward(loss1);
  const Tensor after_one = x->grad();
  Variable loss2 = ops::SumAll(x);
  Backward(loss2);
  EXPECT_TRUE(AllClose(x->grad(), Scale(after_one, 2.0f), 1e-5f, 1e-6f));
}

TEST_P(AutogradPropertyTest, SharedSubgraphGradient) {
  // A value used by two heads receives the sum of both heads' gradients.
  const GradShape s = GetParam();
  Variable x = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  ExpectGradientsMatch({x}, [&] {
    Variable shared = ops::Sigmoid(x);
    Variable head1 = ops::SumAll(ops::Mul(shared, shared));
    Variable head2 = ops::Scale(
        ops::SumAll(shared), 1.0f / static_cast<float>(shared->value().size()));
    return ops::Add(head1, ops::Scale(head2, 3.0f));
  });
}

TEST_P(AutogradPropertyTest, ConstantsNeverReceiveGradients) {
  const GradShape s = GetParam();
  Variable x = MakeVariable(rng_.NormalTensor(s.rows, s.cols), true);
  Variable c = MakeConstant(rng_.NormalTensor(s.rows, s.cols));
  Backward(ops::SumAll(ops::Mul(x, c)));
  EXPECT_FALSE(x->grad().empty());
  EXPECT_TRUE(c->grad().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AutogradPropertyTest,
    ::testing::Values(GradShape{1, 1}, GradShape{2, 5}, GradShape{6, 3},
                      GradShape{4, 4}, GradShape{9, 2}),
    [](const ::testing::TestParamInfo<GradShape>& info) {
      return "r" + std::to_string(info.param.rows) + "c" +
             std::to_string(info.param.cols);
    });

}  // namespace
}  // namespace mcond
