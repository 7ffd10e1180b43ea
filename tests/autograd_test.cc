#include "autograd/ops.h"

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "gradcheck.h"

namespace mcond {
namespace {

using testing::ExpectGradientsMatch;

Variable Param(Rng& rng, int64_t r, int64_t c, float scale = 1.0f) {
  return MakeVariable(rng.NormalTensor(r, c, 0.0f, scale),
                      /*requires_grad=*/true);
}

TEST(AutogradTest, BackwardRequiresScalar) {
  Variable v = MakeVariable(Tensor::Ones(2, 2), true);
  EXPECT_DEATH(Backward(v), "scalar");
}

TEST(AutogradTest, ConstantGraphIsNoOp) {
  Variable c = MakeConstant(Tensor::Ones(1, 1));
  Backward(c);  // Should not crash, nothing trainable.
  EXPECT_TRUE(c->grad().empty());
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  Variable x = MakeVariable(Tensor::Ones(1, 1), true);
  Variable y = ops::Add(x, x);  // dy/dx = 2.
  Backward(y);
  EXPECT_FLOAT_EQ(x->grad().At(0, 0), 2.0f);
}

TEST(AutogradTest, ZeroGradClears) {
  Variable x = MakeVariable(Tensor::Ones(1, 1), true);
  Backward(ops::Scale(x, 3.0f));
  EXPECT_FLOAT_EQ(x->grad().At(0, 0), 3.0f);
  x->ZeroGrad();
  EXPECT_TRUE(x->grad().empty());
}

TEST(AutogradTest, MatMulGradcheck) {
  Rng rng(1);
  Variable a = Param(rng, 3, 4);
  Variable b = Param(rng, 4, 2);
  ExpectGradientsMatch({a, b}, [&] {
    return ops::SumAll(ops::MatMul(a, b));
  });
}

TEST(AutogradTest, SpMMGradcheck) {
  Rng rng(2);
  CsrMatrix s = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0f}, {1, 0, -1.0f}, {2, 2, 0.5f}, {0, 0, 1.0f}});
  Variable x = Param(rng, 3, 2);
  ExpectGradientsMatch({x}, [&] {
    return ops::SumAll(ops::Mul(ops::SpMM(s, x), ops::SpMM(s, x)));
  });
}

TEST(AutogradTest, AddSubMulGradcheck) {
  Rng rng(3);
  Variable a = Param(rng, 2, 3);
  Variable b = Param(rng, 2, 3);
  ExpectGradientsMatch({a, b}, [&] {
    return ops::SumAll(ops::Mul(ops::Add(a, b), ops::Sub(a, b)));
  });
}

TEST(AutogradTest, ScaleAddScalarGradcheck) {
  Rng rng(4);
  Variable a = Param(rng, 2, 2);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumAll(ops::AddScalar(ops::Scale(a, -2.5f), 7.0f));
  });
}

TEST(AutogradTest, BroadcastOpsGradcheck) {
  Rng rng(5);
  Variable a = Param(rng, 3, 4);
  Variable row = Param(rng, 1, 4);
  Variable col = MakeVariable(rng.UniformTensor(3, 1, 0.5f, 2.0f), true);
  Variable row2 = MakeVariable(rng.UniformTensor(1, 4, 0.5f, 2.0f), true);
  ExpectGradientsMatch({a, row, col, row2}, [&] {
    Variable h = ops::AddRowBroadcast(a, row);
    h = ops::MulRowBroadcast(h, col);
    h = ops::MulColBroadcast(h, row2);
    return ops::SumAll(ops::Mul(h, h));
  });
}

TEST(AutogradTest, DivRowBroadcastGradcheck) {
  Rng rng(6);
  Variable a = Param(rng, 3, 2);
  Variable col = MakeVariable(rng.UniformTensor(3, 1, 1.0f, 3.0f), true);
  ExpectGradientsMatch({a, col}, [&] {
    return ops::SumAll(ops::Mul(ops::DivRowBroadcast(a, col),
                                ops::DivRowBroadcast(a, col)));
  });
}

TEST(AutogradTest, ReluGradcheck) {
  Rng rng(7);
  // Keep entries away from the kink for a clean finite-difference check.
  Tensor v = rng.NormalTensor(3, 3);
  for (int64_t i = 0; i < v.size(); ++i) {
    if (std::fabs(v.data()[i]) < 0.1f) v.data()[i] = 0.5f;
  }
  Variable a = MakeVariable(v, true);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumAll(ops::Mul(ops::Relu(a), ops::Relu(a)));
  });
}

TEST(AutogradTest, SigmoidGradcheck) {
  Rng rng(8);
  Variable a = Param(rng, 2, 3);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumAll(ops::Mul(ops::Sigmoid(a), ops::Sigmoid(a)));
  });
}

TEST(AutogradTest, PowGradcheck) {
  Rng rng(9);
  Variable a = MakeVariable(rng.UniformTensor(2, 3, 0.5f, 3.0f), true);
  ExpectGradientsMatch({a}, [&] {
    return ops::SumAll(ops::PowV(a, -0.5f));
  });
}

TEST(AutogradTest, TransposeReshapeGradcheck) {
  Rng rng(10);
  Variable a = Param(rng, 2, 6);
  ExpectGradientsMatch({a}, [&] {
    Variable t = ops::Transpose(ops::Reshape(a, 3, 4));
    return ops::SumAll(ops::Mul(t, t));
  });
}

TEST(AutogradTest, ConcatSliceGatherGradcheck) {
  Rng rng(11);
  Variable a = Param(rng, 2, 3);
  Variable b = Param(rng, 2, 3);
  ExpectGradientsMatch({a, b}, [&] {
    Variable cols = ops::ConcatCols(a, b);           // 2x6
    Variable s = ops::SliceRows(cols, 1, 2);         // 1x6
    Variable g = ops::GatherRows(cols, {0, 0, 1});   // 3x6 with reuse
    return ops::Add(ops::SumAll(ops::Mul(s, s)),
                    ops::Add(ops::SumAll(ops::Mul(g, g)),
                             ops::SumAll(ops::Mul(cols, cols))));
  });
}

TEST(AutogradTest, PairSumGradcheck) {
  Rng rng(19);
  for (const int64_t h : {1, 64}) {
    Variable u = Param(rng, 3, h);
    Variable v = Param(rng, 4, h);
    // A row-varying weight, so a dU/dV that sums the wrong block fails.
    Variable w = MakeConstant(rng.NormalTensor(12, h));
    ExpectGradientsMatch({u, v}, [&] {
      Variable p = ops::PairSum(u, v);
      return ops::SumAll(ops::Mul(ops::Mul(p, p), w));
    });
  }
}

TEST(AutogradTest, PairSumValue) {
  Variable u = MakeConstant(Tensor::FromVector(2, 2, {1, 2, 3, 4}));
  Variable v = MakeConstant(Tensor::FromVector(3, 2, {10, 20, 30, 40, 50, 60}));
  const Tensor p = ops::PairSum(u, v)->value();
  ASSERT_EQ(p.rows(), 6);
  ASSERT_EQ(p.cols(), 2);
  // Row i·3 + j = u_i + v_j.
  EXPECT_FLOAT_EQ(p.At(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(p.At(2, 1), 62.0f);
  EXPECT_FLOAT_EQ(p.At(4, 0), 33.0f);
  EXPECT_FLOAT_EQ(p.At(5, 1), 64.0f);
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(AutogradTest, PairSumBitsIndependentOfPoolWidth) {
  // Large enough that the forward and both reductions split into several
  // chunks at width 4; an odd h and a random upstream gradient, so any
  // change of summation order shows in the bits.
  Rng rng(20);
  const Tensor u0 = rng.NormalTensor(97, 61);
  const Tensor v0 = rng.NormalTensor(83, 61);
  const Tensor w = rng.NormalTensor(97 * 83, 61);
  struct Result {
    Tensor value, du, dv;
  };
  auto run = [&] {
    Variable u = MakeVariable(u0, true);
    Variable v = MakeVariable(v0, true);
    Variable p = ops::PairSum(u, v);
    Backward(ops::SumAll(ops::Mul(p, MakeConstant(w))));
    return Result{p->value(), u->grad(), v->grad()};
  };
  Result inline_run;
  {
    ScopedInlineParallelRegion width_one;
    inline_run = run();
  }
  ThreadPool::Global().SetNumThreads(4);
  const Result pooled = run();
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
  EXPECT_TRUE(BitEqual(inline_run.value, pooled.value));
  EXPECT_TRUE(BitEqual(inline_run.du, pooled.du));
  EXPECT_TRUE(BitEqual(inline_run.dv, pooled.dv));
}

TEST(AutogradTest, RowSumMeanGradcheck) {
  Rng rng(12);
  Variable a = Param(rng, 3, 4);
  ExpectGradientsMatch({a}, [&] {
    Variable r = ops::RowSum(a);
    return ops::Add(ops::Scale(ops::SumAll(ops::Mul(r, r)), 1.0f / 3.0f),
                    ops::Scale(ops::SumAll(a), 1.0f / 12.0f));
  });
}

TEST(AutogradTest, SoftmaxRowsGradcheck) {
  Rng rng(13);
  Variable a = Param(rng, 3, 4);
  Variable weights = MakeConstant(rng.NormalTensor(3, 4));
  ExpectGradientsMatch({a}, [&] {
    return ops::SumAll(ops::Mul(ops::SoftmaxRows(a), weights));
  });
}

TEST(AutogradTest, SoftmaxCrossEntropyGradcheck) {
  Rng rng(14);
  Variable logits = Param(rng, 5, 3);
  const std::vector<int64_t> labels = {0, 2, 1, 1, 0};
  ExpectGradientsMatch({logits}, [&] {
    return ops::SoftmaxCrossEntropy(logits, labels);
  });
}

TEST(AutogradTest, SoftmaxCrossEntropyValue) {
  // Uniform logits over C classes: CE = log(C).
  Variable logits = MakeVariable(Tensor(4, 3), true);
  Variable loss = ops::SoftmaxCrossEntropy(logits, {0, 1, 2, 0});
  EXPECT_NEAR(loss->value().At(0, 0), std::log(3.0f), 1e-5f);
}

TEST(AutogradTest, L21NormGradcheck) {
  Rng rng(15);
  Variable a = Param(rng, 4, 3);
  ExpectGradientsMatch({a}, [&] { return ops::L21Norm(a); });
}

TEST(AutogradTest, L21NormValue) {
  Variable a = MakeVariable(Tensor::FromVector(2, 2, {3, 4, 0, 0}), true);
  EXPECT_NEAR(ops::L21Norm(a)->value().At(0, 0), 5.0f, 1e-5f);
}

TEST(AutogradTest, CosineColumnDistanceGradcheck) {
  Rng rng(16);
  Variable a = Param(rng, 4, 3);
  Variable b = Param(rng, 4, 3);
  ExpectGradientsMatch({a, b}, [&] {
    return ops::CosineColumnDistance(a, b);
  });
}

TEST(AutogradTest, CosineColumnDistanceValues) {
  // Identical matrices: distance 0 per column.
  Rng rng(17);
  Tensor t = rng.NormalTensor(4, 3);
  Variable a = MakeVariable(t, true);
  Variable b = MakeConstant(t);
  EXPECT_NEAR(ops::CosineColumnDistance(a, b)->value().At(0, 0), 0.0f, 1e-4f);
  // Opposite sign: distance 2 per column.
  Variable c = MakeConstant(Scale(t, -1.0f));
  EXPECT_NEAR(ops::CosineColumnDistance(a, c)->value().At(0, 0),
              2.0f * 3.0f, 1e-4f);
}

TEST(AutogradTest, CosineColumnDistanceZeroColumnSafe) {
  Variable a = MakeVariable(Tensor(3, 2), true);  // All-zero columns.
  Variable b = MakeConstant(Tensor::Ones(3, 2));
  Variable d = ops::CosineColumnDistance(a, b);
  EXPECT_NEAR(d->value().At(0, 0), 2.0f, 1e-5f);  // Max distance, 2 columns.
  Backward(d);
  // Zero gradient at degenerate columns.
  EXPECT_EQ(MaxAbsDiff(a->grad(), Tensor(3, 2)), 0.0f);
}

TEST(AutogradTest, RowsDotRowsGradcheck) {
  Rng rng(18);
  Variable a = Param(rng, 4, 3);
  Variable b = Param(rng, 4, 3);
  ExpectGradientsMatch({a, b}, [&] {
    Variable d = ops::RowsDotRows(a, b);
    return ops::SumAll(ops::Mul(d, d));
  });
}

TEST(AutogradTest, BceWithLogitsGradcheck) {
  Rng rng(19);
  Variable scores = Param(rng, 6, 1);
  Tensor targets = Tensor::FromVector(6, 1, {1, 0, 1, 1, 0, 0});
  ExpectGradientsMatch({scores}, [&] {
    return ops::BceWithLogits(scores, targets);
  });
}

TEST(AutogradTest, BceWithLogitsValue) {
  // score 0 → p=0.5 → loss = log 2 for either target.
  Variable s = MakeVariable(Tensor(2, 1), true);
  Tensor t = Tensor::FromVector(2, 1, {1.0f, 0.0f});
  EXPECT_NEAR(ops::BceWithLogits(s, t)->value().At(0, 0), std::log(2.0f),
              1e-5f);
}

TEST(AutogradTest, DropoutTrainingScalesAndMasks) {
  Rng rng(20);
  Variable a = MakeVariable(Tensor::Ones(50, 50), true);
  Variable d = ops::Dropout(a, 0.5f, rng, /*training=*/true);
  int64_t zeros = 0;
  for (int64_t i = 0; i < d->value().size(); ++i) {
    const float v = d->value().data()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6f);
    if (v == 0.0f) ++zeros;
  }
  EXPECT_GT(zeros, 800);
  EXPECT_LT(zeros, 1700);
  // Inference mode: identity, same node returned.
  Variable e = ops::Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(e.get(), a.get());
}


TEST(AutogradTest, DiamondGraphGradient) {
  // x used by two paths that rejoin: y = x*x + 3x, dy/dx = 2x + 3.
  Variable x = MakeVariable(Tensor::Full(1, 1, 2.0f), true);
  Variable y = ops::Add(ops::Mul(x, x), ops::Scale(x, 3.0f));
  Backward(ops::SumAll(y));
  EXPECT_FLOAT_EQ(x->grad().At(0, 0), 7.0f);
}

TEST(AutogradTest, AccumulateGradMovesRvaluesAndCopiesLvalues) {
  Variable x = MakeVariable(Tensor(2, 3), true);
  Tensor first = Tensor::Full(2, 3, 1.5f);
  const float* buffer = first.data();
  x->AccumulateGrad(std::move(first));
  EXPECT_EQ(x->grad().data(), buffer);  // Took ownership, no copy.
  x->AccumulateGrad(Tensor::Full(2, 3, 0.25f));
  EXPECT_EQ(x->grad().data(), buffer);  // Added into the same buffer.
  EXPECT_TRUE(BitEqual(x->grad(), Tensor::Full(2, 3, 1.75f)));

  Variable y = MakeVariable(Tensor(2, 3), true);
  const Tensor kept = Tensor::Full(2, 3, 2.0f);
  y->AccumulateGrad(kept);
  EXPECT_NE(y->grad().data(), kept.data());  // An lvalue is copied.
  EXPECT_TRUE(BitEqual(y->grad(), kept));
  y->mutable_grad().At(0, 0) = 9.0f;
  EXPECT_EQ(kept.At(0, 0), 2.0f);
}

/// The five-op Eq. (15) chain SigmoidRowNormalize replaces: its oracle.
Variable Eq15Chain(const Variable& a, float eps) {
  Variable sig = ops::Sigmoid(a);
  Variable normalized = ops::DivRowBroadcast(sig, ops::RowSum(sig));
  return ops::Relu(ops::AddScalar(normalized, -eps));
}

TEST(AutogradTest, SigmoidRowNormalizeMatchesChainBitForBit) {
  struct Case {
    const char* name;
    Tensor a;
    float eps;
  };
  Rng rng(21);
  std::vector<Case> cases;
  // Several row chunks at width 4, with entries of ±90 so both branches of
  // σ's sign split run at its extremes.
  Tensor wide = rng.NormalTensor(700, 96, 0.0f, 2.0f);
  for (int64_t k = 0; k < wide.size(); k += 37) {
    wide.data()[k] = (k / 37) % 2 == 0 ? 90.0f : -90.0f;
  }
  cases.push_back({"wide", wide, 1e-5f});
  cases.push_back({"one_column", rng.NormalTensor(300, 1), 1e-5f});
  // Uniform rows have weight 1/4 < ε, so ε cuts them to zero entirely.
  Tensor cut = rng.NormalTensor(6, 4);
  for (int64_t i = 0; i < 6; i += 2) {
    for (int64_t j = 0; j < 4; ++j) cut.At(i, j) = 0.5f;
  }
  cases.push_back({"rows_cut_by_eps", cut, 0.3f});

  const simd::Tier saved_tier = simd::ActiveTier();
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  struct Result {
    Tensor value, grad;
  };
  for (const Case& c : cases) {
    // A random weighted sum, so ∂/∂out has both signs (g·0 keeps g's sign).
    const Tensor w = rng.NormalTensor(c.a.rows(), c.a.cols());
    auto run = [&](bool fused) {
      Variable a = MakeVariable(c.a, true);
      Variable out = fused ? ops::SigmoidRowNormalize(a, c.eps)
                           : Eq15Chain(a, c.eps);
      Backward(ops::SumAll(ops::Mul(out, MakeConstant(w))));
      return Result{out->value(), a->grad()};
    };
    simd::SetTier(simd::Tier::kScalar);
    ThreadPool::Global().SetNumThreads(1);
    const Result oracle = run(/*fused=*/false);
    ASSERT_EQ(oracle.grad.rows(), c.a.rows()) << c.name;
    for (simd::Tier tier : tiers) {
      simd::SetTier(tier);
      for (int width : {1, 2, 4}) {
        ThreadPool::Global().SetNumThreads(width);
        const Result chain = run(/*fused=*/false);
        const Result fused = run(/*fused=*/true);
        const std::string where = std::string(c.name) + " tier " +
                                  simd::TierName(tier) + " width " +
                                  std::to_string(width);
        EXPECT_TRUE(BitEqual(chain.value, oracle.value)) << where;
        EXPECT_TRUE(BitEqual(chain.grad, oracle.grad)) << where;
        EXPECT_TRUE(BitEqual(fused.value, oracle.value)) << where;
        EXPECT_TRUE(BitEqual(fused.grad, oracle.grad)) << where;
        // The eager form (MappingMatrix::NormalizedTensor) shares the kernel.
        EXPECT_TRUE(BitEqual(SigmoidRowNormalize(c.a, c.eps), oracle.value))
            << where;
      }
    }
  }
  simd::SetTier(saved_tier);
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
  // The ε-cut rows really are zero, so their mask branch was exercised.
  const Tensor cut_row = SliceRows(SigmoidRowNormalize(cut, 0.3f), 0, 1);
  EXPECT_EQ(MaxAbsDiff(cut_row, Tensor(1, cut_row.cols())), 0.0f);
}

TEST(AutogradTest, DeepChainGradient) {
  // y = 2^10 * x via repeated scaling.
  Variable x = MakeVariable(Tensor::Ones(1, 1), true);
  Variable h = x;
  for (int i = 0; i < 10; ++i) h = ops::Scale(h, 2.0f);
  Backward(ops::SumAll(h));
  EXPECT_FLOAT_EQ(x->grad().At(0, 0), 1024.0f);
}

}  // namespace
}  // namespace mcond
