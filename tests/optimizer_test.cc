#include "autograd/optimizer.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor_ops.h"

namespace mcond {
namespace {

/// Minimizes ||x - target||² and returns the final distance.
float MinimizeQuadratic(AdamOptimizer& opt, const Variable& x, const Tensor& target,
                        int steps) {
  for (int i = 0; i < steps; ++i) {
    Variable diff = ops::Sub(x, MakeConstant(target));
    Variable loss = ops::SumAll(ops::Mul(diff, diff));
    opt.ZeroGrad();
    Backward(loss);
    opt.Step();
  }
  return MaxAbsDiff(x->value(), target);
}

TEST(AdamOptimizerTest, ConvergesOnQuadratic) {
  Rng rng(2);
  Variable x = MakeVariable(rng.NormalTensor(3, 3), true);
  Tensor target = rng.NormalTensor(3, 3);
  AdamOptimizer opt({x}, 0.05f);
  EXPECT_LT(MinimizeQuadratic(opt, x, target, 300), 1e-3f);
}

TEST(AdamOptimizerTest, FirstStepHasLearningRateMagnitude) {
  // With bias correction, the first Adam step is ≈ lr * sign(grad).
  Variable x = MakeVariable(Tensor::Full(1, 1, 1.0f), true);
  AdamOptimizer opt({x}, 0.1f);
  Variable loss = ops::SumAll(ops::Mul(x, x));
  opt.ZeroGrad();
  Backward(loss);
  opt.Step();
  EXPECT_NEAR(x->value().At(0, 0), 0.9f, 1e-4f);
}

TEST(OptimizerTest, SkipsParamsWithoutGradient) {
  Variable used = MakeVariable(Tensor::Ones(1, 1), true);
  Variable unused = MakeVariable(Tensor::Ones(1, 1), true);
  AdamOptimizer opt({used, unused}, 0.5f);
  Variable loss = ops::SumAll(used);
  opt.ZeroGrad();
  Backward(loss);
  opt.Step();
  EXPECT_NEAR(used->value().At(0, 0), 0.5f, 1e-5f);
  EXPECT_FLOAT_EQ(unused->value().At(0, 0), 1.0f);
}

TEST(OptimizerTest, StepClearsGradients) {
  Variable x = MakeVariable(Tensor::Ones(1, 1), true);
  AdamOptimizer opt({x}, 0.1f);
  Backward(ops::SumAll(x));
  opt.Step();
  EXPECT_TRUE(x->grad().empty());
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  // With zero task gradient, decay alone should shrink the value: the
  // decayed gradient is wd·x = 1, so the first Adam step is ≈ lr.
  Variable x = MakeVariable(Tensor::Full(1, 1, 1.0f), true);
  AdamOptimizer opt({x}, 0.1f, /*weight_decay=*/1.0f);
  Variable loss = ops::SumAll(ops::Scale(x, 0.0f));
  opt.ZeroGrad();
  Backward(loss);
  opt.Step();
  EXPECT_NEAR(x->value().At(0, 0), 0.9f, 1e-4f);
}

TEST(AdamOptimizerTest, HandlesSparseUpdatePattern) {
  // A parameter that only sometimes receives gradients must not blow up.
  Variable x = MakeVariable(Tensor::Full(1, 1, 1.0f), true);
  AdamOptimizer opt({x}, 0.01f);
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      opt.ZeroGrad();
      Backward(ops::SumAll(ops::Mul(x, x)));
    }
    opt.Step();
  }
  EXPECT_TRUE(x->value().AllFinite());
}

// Serial per-element reference for the in-place update: the gradient is
// copied, weight decay is added as g + wd·x, then each element is updated.
// The optimizer must reproduce it bit for bit at every pool width.

constexpr int64_t kRefRows = 300;  // 60,000 elements: several update chunks.
constexpr int64_t kRefCols = 200;

void AdamReference(Tensor& x, const std::vector<Tensor>& grads, float lr,
                   float wd) {
  const float beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  std::vector<float> m(static_cast<size_t>(x.size()), 0.0f);
  std::vector<float> v(static_cast<size_t>(x.size()), 0.0f);
  for (size_t t = 1; t <= grads.size(); ++t) {
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
    for (int64_t k = 0; k < x.size(); ++k) {
      float g = grads[t - 1].data()[k];
      if (wd > 0.0f) g = g + wd * x.data()[k];
      float& mk = m[static_cast<size_t>(k)];
      float& vk = v[static_cast<size_t>(k)];
      mk = beta1 * mk + (1.0f - beta1) * g;
      vk = beta2 * vk + (1.0f - beta2) * g * g;
      const float mhat = mk / bc1;
      const float vhat = vk / bc2;
      x.data()[k] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

/// Feeds `grads` to an Adam optimizer one step each and returns the
/// parameter.
Tensor RunAdam(const Tensor& x0, const std::vector<Tensor>& grads, float lr,
               float wd) {
  Variable x = MakeVariable(x0, true);
  AdamOptimizer opt({x}, lr, wd);
  for (const Tensor& g : grads) {
    x->AccumulateGrad(g);
    opt.Step();
    EXPECT_TRUE(x->grad().empty());
  }
  return x->value();
}

TEST(AdamOptimizerTest, MatchesSerialReferenceAtEveryPoolWidth) {
  Rng rng(30);
  const Tensor x0 = rng.NormalTensor(kRefRows, kRefCols);
  std::vector<Tensor> grads;
  for (int t = 0; t < 3; ++t) {
    grads.push_back(rng.NormalTensor(kRefRows, kRefCols, 0.0f, 0.1f));
  }
  for (float wd : {0.0f, 5e-4f}) {
    Tensor expected = x0;
    AdamReference(expected, grads, 0.05f, wd);
    for (int width : {1, 2, 4}) {
      ThreadPool::Global().SetNumThreads(width);
      EXPECT_TRUE(BitEqual(RunAdam(x0, grads, 0.05f, wd), expected))
          << "weight_decay " << wd << " width " << width;
    }
  }
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}

}  // namespace
}  // namespace mcond
