// Unit tests for the condensation building blocks: label allocation,
// feature initialization, MLP_Φ adjacency generation, dense normalization,
// the block-structured ℒ_ind propagation, relay gradients, gradient
// matching, and the mapping matrix.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/optimizer.h"
#include "condense/adjacency_generator.h"
#include "condense/class_distribution.h"
#include "condense/dense_ops.h"
#include "condense/gradient_matching.h"
#include "condense/mapping.h"
#include "condense/relay_sgc.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "dense_block_oracle.h"
#include "gradcheck.h"
#include "nn/metrics.h"

namespace mcond {
namespace {

Graph TestGraph(uint64_t seed = 21, int64_t n = 90, int64_t c = 3) {
  SbmConfig config;
  config.num_nodes = n;
  config.num_classes = c;
  config.feature_dim = 8;
  config.avg_degree = 6.0;
  Rng rng(seed);
  return GenerateSbmGraph(config, rng);
}

TEST(ClassDistributionTest, AllocatesProportionallyWithFloor) {
  Graph g = TestGraph();
  const std::vector<int64_t> labels = AllocateSyntheticLabels(g, 12);
  ASSERT_EQ(labels.size(), 12u);
  std::vector<int64_t> counts(3, 0);
  for (int64_t y : labels) ++counts[static_cast<size_t>(y)];
  for (int64_t c : counts) EXPECT_GE(c, 1);
  // Proportionality: largest class gets at least as many synthetic nodes.
  const std::vector<int64_t> orig = g.ClassCounts();
  const int64_t argmax_orig = static_cast<int64_t>(
      std::max_element(orig.begin(), orig.end()) - orig.begin());
  const int64_t max_count =
      *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(counts[static_cast<size_t>(argmax_orig)], max_count);
}

TEST(ClassDistributionTest, LabelsGroupedByClass) {
  Graph g = TestGraph();
  const std::vector<int64_t> labels = AllocateSyntheticLabels(g, 10);
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
}

TEST(ClassDistributionTest, MinimumOnePerClassEnforced) {
  Graph g = TestGraph(22, 90, 5);
  EXPECT_DEATH(AllocateSyntheticLabels(g, 3), "at least one");
  const std::vector<int64_t> labels = AllocateSyntheticLabels(g, 5);
  std::vector<int64_t> counts(5, 0);
  for (int64_t y : labels) ++counts[static_cast<size_t>(y)];
  for (int64_t c : counts) EXPECT_EQ(c, 1);
}

TEST(ClassDistributionTest, FeatureInitDrawsFromMatchingClass) {
  Graph g = TestGraph();
  const std::vector<int64_t> labels = AllocateSyntheticLabels(g, 9);
  Rng rng(1);
  Tensor x = InitializeSyntheticFeatures(g, labels, rng);
  ASSERT_EQ(x.rows(), 9);
  ASSERT_EQ(x.cols(), g.FeatureDim());
  // Every synthetic feature must be within jitter distance of some original
  // node of the same class.
  for (int64_t s = 0; s < x.rows(); ++s) {
    float best = 1e30f;
    for (int64_t i = 0; i < g.NumNodes(); ++i) {
      if (g.labels()[static_cast<size_t>(i)] !=
          labels[static_cast<size_t>(s)]) {
        continue;
      }
      float d = 0.0f;
      for (int64_t j = 0; j < x.cols(); ++j) {
        const float diff = x.At(s, j) - g.features().At(i, j);
        d += diff * diff;
      }
      best = std::min(best, d);
    }
    EXPECT_LT(best, 0.01f);
  }
}

TEST(AdjacencyGeneratorTest, OutputSymmetricInUnitRange) {
  Rng rng(2);
  AdjacencyGenerator gen(6, 8, rng);
  Variable x = MakeConstant(rng.NormalTensor(7, 6));
  Variable a = gen.Forward(x);
  ASSERT_EQ(a->rows(), 7);
  ASSERT_EQ(a->cols(), 7);
  const Tensor& v = a->value();
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(v.At(i, j), 0.0f);
      EXPECT_LT(v.At(i, j), 1.0f);
      EXPECT_NEAR(v.At(i, j), v.At(j, i), 1e-6f);
    }
  }
}

TEST(AdjacencyGeneratorTest, GradientsFlowToFeaturesAndPhi) {
  Rng rng(3);
  AdjacencyGenerator gen(4, 6, rng);
  Variable x = MakeVariable(rng.NormalTensor(5, 4), true);
  std::vector<Variable> params = gen.Parameters();
  params.push_back(x);
  // Small eps: MLP_Φ inputs sit near ReLU kinks, so large finite-difference
  // steps are biased (numeric → analytic as eps shrinks).
  testing::ExpectGradientsMatch(
      params, [&] { return ops::SumAll(ops::Mul(gen.Forward(x),
                                                gen.Forward(x))); },
      /*eps=*/1e-3f, /*rel_tol=*/0.1f, /*abs_tol=*/5e-3f);
}

// The literal Eq. (6) form the generator factors: gather every ordered
// pair, concatenate to an N'²×2d matrix and run MLP_Φ on it.
Variable ConcatPairAdjacency(const Mlp& phi, const Variable& x) {
  const int64_t n = x->rows();
  std::vector<int64_t> left(static_cast<size_t>(n * n));
  std::vector<int64_t> right(static_cast<size_t>(n * n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      left[static_cast<size_t>(i * n + j)] = i;
      right[static_cast<size_t>(i * n + j)] = j;
    }
  }
  Variable pairs = ops::ConcatCols(ops::GatherRows(x, std::move(left)),
                                   ops::GatherRows(x, std::move(right)));
  Rng unused(0);
  Variable scores = ops::Reshape(
      phi.Forward(pairs, /*training=*/false, unused), n, n);
  return ops::Sigmoid(
      ops::Scale(ops::Add(scores, ops::Transpose(scores)), 0.5f));
}

// |a - b| / max(1, |b|), worst entry; the same measure as simd_test.cc.
float MaxRelDiff(const Tensor& a, const Tensor& b) {
  float worst = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    worst = std::max(worst, d / std::max(1.0f, std::fabs(b.data()[i])));
  }
  return worst;
}

TEST(AdjacencyGeneratorTest, FactoredFirstLayerMatchesConcatOracle) {
  struct RestoreTier {
    simd::Tier saved = simd::ActiveTier();
    ~RestoreTier() { simd::SetTier(saved); }
  } restore_tier;
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  struct Dims {
    int64_t d, h;
  };
  for (const simd::Tier tier : tiers) {
    simd::SetTier(tier);
    for (const int64_t n : {1, 7, 33}) {
      for (const Dims dims : {Dims{5, 3}, Dims{13, 17}, Dims{37, 65}}) {
        // Same seed, same construction order: the oracle's MLP_Φ holds the
        // generator's parameters bit for bit.
        Rng gen_rng(n * 1000 + dims.d);
        AdjacencyGenerator gen(dims.d, dims.h, gen_rng);
        Rng phi_rng(n * 1000 + dims.d);
        Mlp phi({2 * dims.d, dims.h, 1}, /*dropout=*/0.0f, phi_rng);
        const std::vector<Variable> gp = gen.Parameters();
        const std::vector<Variable> pp = phi.Parameters();
        ASSERT_EQ(gp.size(), pp.size());
        for (size_t k = 0; k < gp.size(); ++k) {
          ASSERT_EQ(0, std::memcmp(gp[k]->value().data(),
                                   pp[k]->value().data(),
                                   sizeof(float) * gp[k]->value().size()));
          // Biases start at zero; give every parameter a nonzero value so
          // b₁'s placement is checked too.
          const Tensor t = gen_rng.NormalTensor(gp[k]->rows(), gp[k]->cols(),
                                                0.0f, 0.5f);
          gp[k]->mutable_value() = t;
          pp[k]->mutable_value() = t;
        }
        Variable x = MakeConstant(gen_rng.NormalTensor(n, dims.d));
        const Tensor got = gen.Forward(x)->value();
        const Tensor want = ConcatPairAdjacency(phi, x)->value();
        ASSERT_EQ(got.rows(), n);
        ASSERT_EQ(got.cols(), n);
        // The first layer reassociates a k = 2d term sum: the GEMM
        // tolerance rule of simd_test.cc.
        const float tol = 64.0f * std::numeric_limits<float>::epsilon() *
                          static_cast<float>(2 * dims.d);
        EXPECT_LE(MaxRelDiff(got, want), tol)
            << simd::TierName(tier) << " n=" << n << " d=" << dims.d
            << " h=" << dims.h;
      }
    }
  }
}

TEST(DenseOpsTest, NormalizeDenseMatchesSparsePath) {
  Rng rng(4);
  // Random symmetric nonnegative adjacency.
  Tensor a(6, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = i + 1; j < 6; ++j) {
      const float v = rng.Uniform(0.0f, 1.0f);
      a.At(i, j) = v;
      a.At(j, i) = v;
    }
  }
  const Tensor dense = NormalizeDenseAdjacency(MakeConstant(a))->value();
  const Tensor sparse =
      SymNormalize(CsrMatrix::FromDense(a), /*add_self_loops=*/true)
          .ToDense();
  EXPECT_TRUE(AllClose(dense, sparse, 1e-4f, 1e-5f));
}

TEST(DenseOpsTest, NormalizeDenseGradcheck) {
  Rng rng(5);
  Variable a = MakeVariable(rng.UniformTensor(4, 4, 0.1f, 0.9f), true);
  testing::ExpectGradientsMatch({a}, [&] {
    Variable n = NormalizeDenseAdjacency(a);
    return ops::SumAll(ops::Mul(n, n));
  });
}

TEST(DenseOpsTest, PropagateDenseDepth) {
  Tensor a = Tensor::Identity(3);
  Variable x = MakeConstant(Tensor::Ones(3, 2));
  Variable h = PropagateDense(MakeConstant(Scale(a, 2.0f)), x, 3);
  EXPECT_FLOAT_EQ(h->value().At(0, 0), 8.0f);  // (2I)³ x.
}

TEST(DenseOpsTest, ComposeDenseBlockMatchesSparseCompose) {
  Rng rng(6);
  Tensor base = rng.UniformTensor(3, 3, 0.0f, 1.0f);
  // Symmetrize.
  base = Scale(Add(base, Transpose(base)), 0.5f);
  Tensor links = rng.UniformTensor(2, 3, 0.0f, 1.0f);
  Tensor inter(2, 2);
  Variable composed = testing::ComposeDenseBlockAdjacency(
      MakeConstant(base), MakeConstant(links), MakeConstant(inter));
  // Check the blocks.
  EXPECT_FLOAT_EQ(composed->value().At(0, 1), base.At(0, 1));
  EXPECT_FLOAT_EQ(composed->value().At(3, 2), links.At(0, 2));
  EXPECT_FLOAT_EQ(composed->value().At(2, 3), links.At(0, 2));
  EXPECT_FLOAT_EQ(composed->value().At(4, 4), 0.0f);
}

enum class InterKind { kRandom, kEmpty, kDiagonal };

// A symmetric weighted n×n inter-edge block: none (the node-batch case),
// random off-diagonal edges, or those plus an explicit self-edge per node.
CsrMatrix RandomInter(int64_t n, InterKind kind, Rng& rng) {
  std::vector<Triplet> triplets;
  if (kind != InterKind::kEmpty) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        if (rng.Uniform() < 0.3f) {
          const float w = rng.Uniform(0.1f, 1.0f);
          triplets.push_back({i, j, w});
          triplets.push_back({j, i, w});
        }
      }
      if (kind == InterKind::kDiagonal) {
        triplets.push_back({i, i, rng.Uniform(0.1f, 1.0f)});
      }
    }
  }
  return CsrMatrix::FromTriplets(n, n, std::move(triplets));
}

// ℒ_ind's block propagation against the dense compose → normalize →
// propagate → slice chain it replaces: the values and ∂/∂(aM) through a
// random weighted sum, on odd shapes and on both SIMD tiers.
TEST(DenseOpsTest, BlockPropagationMatchesDenseOracle) {
  struct RestoreTier {
    simd::Tier saved = simd::ActiveTier();
    ~RestoreTier() { simd::SetTier(saved); }
  } restore_tier;
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  using Propagate = Variable (*)(const Variable&, const Variable&,
                                 const CsrMatrix&, const Variable&,
                                 const Variable&, int64_t);
  constexpr int64_t kDim = 6;
  for (const simd::Tier tier : tiers) {
    simd::SetTier(tier);
    for (const int64_t n_syn : {1, 7, 33}) {
      for (const int64_t n_sup : {1, 5, 41}) {
        for (const InterKind kind :
             {InterKind::kRandom, InterKind::kEmpty, InterKind::kDiagonal}) {
          Rng rng(static_cast<uint64_t>(n_syn * 100 + n_sup * 3) +
                  static_cast<uint64_t>(kind));
          // A' is a symmetric sigmoid output; aM a sparse nonnegative
          // mixture of mapping rows.
          Tensor a_syn = rng.UniformTensor(n_syn, n_syn, 0.0f, 1.0f);
          a_syn = Scale(Add(a_syn, Transpose(a_syn)), 0.5f);
          Tensor links = rng.UniformTensor(n_sup, n_syn, -0.5f, 1.0f);
          for (int64_t i = 0; i < links.size(); ++i) {
            links.data()[i] = std::max(links.data()[i], 0.0f);
          }
          const CsrMatrix inter = RandomInter(n_sup, kind, rng);
          const Tensor x_syn = rng.NormalTensor(n_syn, kDim);
          const Tensor x_sup = rng.NormalTensor(n_sup, kDim);
          const Tensor weights = rng.NormalTensor(n_sup, kDim);
          for (const int64_t depth : {1, 2, 3}) {
            struct Run {
              Tensor value, grad;
            };
            const auto run = [&](Propagate propagate) {
              Variable l = MakeVariable(links, /*requires_grad=*/true);
              Variable z = propagate(MakeConstant(a_syn), l, inter,
                                     MakeConstant(x_syn),
                                     MakeConstant(x_sup), depth);
              Backward(ops::SumAll(ops::Mul(z, MakeConstant(weights))));
              return Run{z->value(), l->grad()};
            };
            const Run got = run(&PropagateBlockSupportRows);
            const Run want = run(&testing::DenseSupportRows);
            ASSERT_EQ(got.value.rows(), n_sup);
            ASSERT_EQ(got.value.cols(), kDim);
            ASSERT_EQ(got.grad.rows(), n_sup);
            ASSERT_EQ(got.grad.cols(), n_syn);
            // Each hop reassociates a k = N'+n term sum: the GEMM
            // tolerance rule of simd_test.cc, once per hop.
            const float tol = 64.0f *
                              std::numeric_limits<float>::epsilon() *
                              static_cast<float>((n_syn + n_sup) * depth);
            EXPECT_LE(MaxRelDiff(got.value, want.value), tol)
                << simd::TierName(tier) << " N'=" << n_syn << " n=" << n_sup
                << " depth=" << depth << " inter=" << static_cast<int>(kind);
            EXPECT_LE(MaxRelDiff(got.grad, want.grad), tol)
                << simd::TierName(tier) << " N'=" << n_syn << " n=" << n_sup
                << " depth=" << depth << " inter=" << static_cast<int>(kind);
          }
        }
      }
    }
  }
}

TEST(RelaySgcTest, LogitsShapeAndLinearity) {
  Rng rng(7);
  RelaySgc relay(6, 5, 3, 2, rng);
  Tensor z = rng.NormalTensor(10, 6);
  Tensor h = relay.LogitsTensor(z);
  EXPECT_EQ(h.rows(), 10);
  EXPECT_EQ(h.cols(), 3);
  // Linear model: f(2z) = 2 f(z).
  EXPECT_TRUE(AllClose(relay.LogitsTensor(Scale(z, 2.0f)), Scale(h, 2.0f),
                       1e-4f, 1e-5f));
}

// Autograd's view of 𝒢ᵀ: SoftmaxCrossEntropy backward into W₁ and W₂.
std::vector<Tensor> AutogradWeightGradients(
    const RelaySgc& relay, const Tensor& z,
    const std::vector<int64_t>& labels) {
  const std::vector<Variable> params = relay.Parameters();
  ZeroGradAll(params);
  Variable logits = ops::MatMul(
      ops::MatMul(MakeConstant(z), params[0]), params[1]);
  Backward(ops::SoftmaxCrossEntropy(logits, labels));
  std::vector<Tensor> grads = {params[0]->grad(), params[1]->grad()};
  ZeroGradAll(params);
  return grads;
}

std::vector<std::pair<int64_t, int64_t>> OneBlock(int64_t n) {
  return {{0, n}};
}

TEST(RelaySgcTest, AnalyticGradientsMatchAutogradTraining) {
  // The closed-form weight gradients must equal what backprop through the
  // CE loss computes.
  Rng rng(8);
  RelaySgc relay(4, 3, 2, 2, rng);
  Tensor z = rng.NormalTensor(6, 4);
  const std::vector<int64_t> labels = {0, 1, 0, 1, 1, 0};
  const std::vector<Tensor> analytic =
      relay.WeightGradientTensorsBlocked(z, labels, OneBlock(6));
  const std::vector<Tensor> autograd =
      AutogradWeightGradients(relay, z, labels);
  EXPECT_TRUE(AllClose(analytic[0], autograd[0], 1e-4f, 1e-6f));
  EXPECT_TRUE(AllClose(analytic[1], autograd[1], 1e-4f, 1e-6f));
}

TEST(RelaySgcTest, WeightGradientsVariableMatchesTensorPath) {
  Rng rng(9);
  RelaySgc relay(4, 3, 2, 2, rng);
  Tensor z = rng.NormalTensor(5, 4);
  const std::vector<int64_t> labels = {1, 0, 1, 0, 1};
  const std::vector<Variable> vars =
      relay.WeightGradients(MakeConstant(z), labels);
  const std::vector<Tensor> tensors =
      relay.WeightGradientTensorsBlocked(z, labels, OneBlock(5));
  ASSERT_EQ(vars.size(), tensors.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    EXPECT_TRUE(AllClose(vars[i]->value(), tensors[i], 1e-4f, 1e-6f));
  }
}

// Labels in contiguous class runs, the ClassBlockedLabeledNodes layout:
// `runs[c]` rows of class c.
std::vector<int64_t> ClassRunLabels(const std::vector<int64_t>& runs) {
  std::vector<int64_t> labels;
  for (size_t c = 0; c < runs.size(); ++c) {
    labels.insert(labels.end(), static_cast<size_t>(runs[c]),
                  static_cast<int64_t>(c));
  }
  return labels;
}

struct BlockCase {
  const char* name;
  std::vector<int64_t> runs;
  std::vector<std::pair<int64_t, int64_t>> blocks;
};

// One block; uneven class blocks (ClassGradBlocks of uneven runs); and a
// one-row block, with an empty block beside it.
std::vector<BlockCase> BlockCases() {
  return {
      {"one block", {40, 25, 35}, OneBlock(100)},
      {"uneven class blocks", {61, 7, 150, 22},
       {{0, 61}, {61, 68}, {68, 218}, {218, 240}}},
      {"one-row block", {1, 30, 19}, {{0, 1}, {1, 1}, {1, 31}, {31, 50}}},
  };
}

TEST(RelaySgcTest, BlockedGradientsMatchAutograd) {
  for (const BlockCase& c : BlockCases()) {
    const std::vector<int64_t> labels = ClassRunLabels(c.runs);
    const int64_t n = static_cast<int64_t>(labels.size());
    Rng rng(12 + static_cast<uint64_t>(n));
    RelaySgc relay(9, 6, static_cast<int64_t>(c.runs.size()), 2, rng);
    const Tensor z = rng.NormalTensor(n, 9);
    const std::vector<Tensor> blocked =
        relay.WeightGradientTensorsBlocked(z, labels, c.blocks);
    const std::vector<Tensor> autograd =
        AutogradWeightGradients(relay, z, labels);
    ASSERT_EQ(blocked.size(), 2u) << c.name;
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_EQ(blocked[i].rows(), autograd[i].rows()) << c.name;
      ASSERT_EQ(blocked[i].cols(), autograd[i].cols()) << c.name;
      EXPECT_TRUE(AllClose(blocked[i], autograd[i], 1e-4f, 1e-6f))
          << c.name << " gradient " << i;
    }
  }
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Serial reference of the blocked form: the same factored per-block
// kernels, one block after the other, merged in block order.
std::vector<Tensor> SerialBlockedGradients(
    const RelaySgc& relay, const Tensor& z,
    const std::vector<int64_t>& labels,
    const std::vector<std::pair<int64_t, int64_t>>& blocks) {
  ScopedInlineParallelRegion width_one;
  const std::vector<Variable> params = relay.Parameters();
  const Tensor& w1 = params[0]->value();
  const Tensor& w2 = params[1]->value();
  const Tensor w = MatMul(w1, w2);
  Tensor p(w1.rows(), w2.cols());
  for (const auto& [begin, end] : blocks) {
    if (end == begin) continue;
    const Tensor z_b = SliceRows(z, begin, end);
    const std::vector<int64_t> labels_b(labels.begin() + begin,
                                        labels.begin() + end);
    const Tensor residual = Sub(SoftmaxRows(MatMul(z_b, w)),
                                OneHot(labels_b, relay.num_classes()));
    AxpyInPlace(p, 1.0f, MatMulTransA(z_b, residual));
  }
  const float inv_n = 1.0f / static_cast<float>(z.rows());
  return {Scale(MatMulTransB(p, w2), inv_n),
          Scale(MatMulTransA(w1, p), inv_n)};
}

TEST(RelaySgcTest, ParallelBlocksBitEqualSerialBlockOrderMerge) {
  const simd::Tier saved_tier = simd::ActiveTier();
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  // Blocks large enough that, outside a parallel region, their GEMMs would
  // be split across the pool.
  const std::vector<int64_t> runs = {300, 41, 517, 1, 260};
  const std::vector<int64_t> labels = ClassRunLabels(runs);
  const int64_t n = static_cast<int64_t>(labels.size());
  const std::vector<std::pair<int64_t, int64_t>> blocks = {
      {0, 300}, {300, 341}, {341, 600}, {600, 858}, {858, 859}, {859, n}};
  Rng rng(13);
  RelaySgc relay(48, 32, static_cast<int64_t>(runs.size()), 2, rng);
  const Tensor z = rng.NormalTensor(n, 48);
  for (const simd::Tier tier : tiers) {
    simd::SetTier(tier);
    const std::vector<Tensor> want =
        SerialBlockedGradients(relay, z, labels, blocks);
    for (const int width : {1, 2, 4}) {
      ThreadPool::Global().SetNumThreads(width);
      const std::vector<Tensor> got =
          relay.WeightGradientTensorsBlocked(z, labels, blocks);
      ASSERT_EQ(got.size(), 2u);
      for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(BitEqual(got[i], want[i]))
            << simd::TierName(tier) << " width " << width << " gradient "
            << i;
      }
    }
  }
  simd::SetTier(saved_tier);
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}

TEST(RelaySgcTest, WeightGradientsDifferentiableWrtPropagated) {
  Rng rng(10);
  RelaySgc relay(3, 3, 2, 2, rng);
  Variable z = MakeVariable(rng.NormalTensor(4, 3), true);
  const std::vector<int64_t> labels = {0, 1, 1, 0};
  testing::ExpectGradientsMatch({z}, [&] {
    const std::vector<Variable> grads = relay.WeightGradients(z, labels);
    return ops::Add(ops::SumAll(ops::Mul(grads[0], grads[0])),
                    ops::SumAll(ops::Mul(grads[1], grads[1])));
  });
}

TEST(RelaySgcTest, TrainStepReducesLoss) {
  Rng rng(11);
  RelaySgc relay(6, 8, 3, 2, rng);
  Tensor z = rng.NormalTensor(30, 6);
  std::vector<int64_t> labels;
  for (int i = 0; i < 30; ++i) labels.push_back(i % 3);
  AdamOptimizer opt(relay.Parameters(), 0.05f);
  const float first = relay.TrainStep(z, labels, opt);
  float last = first;
  for (int i = 0; i < 50; ++i) last = relay.TrainStep(z, labels, opt);
  EXPECT_LT(last, first);
}

TEST(GradientMatchingTest, ZeroWhenIdentical) {
  Rng rng(12);
  Tensor g1 = rng.NormalTensor(4, 3);
  Tensor g2 = rng.NormalTensor(3, 2);
  Variable loss = GradientMatchingLoss(
      {g1, g2}, {MakeConstant(g1), MakeConstant(g2)});
  EXPECT_NEAR(loss->value().At(0, 0), 0.0f, 1e-4f);
}

TEST(GradientMatchingTest, MaximalWhenOpposite) {
  Rng rng(13);
  Tensor g1 = rng.NormalTensor(4, 3);
  Variable loss = GradientMatchingLoss(
      {g1}, {MakeConstant(Scale(g1, -1.0f))});
  EXPECT_NEAR(loss->value().At(0, 0), 6.0f, 1e-3f);  // 2 per column × 3.
}

TEST(MappingMatrixTest, NormalizedRowsAreSubStochastic) {
  MappingConfig config;
  MappingMatrix m(20, 5, config);
  Rng rng(14);
  m.InitializeRandom(rng);
  Tensor norm = m.NormalizedTensor();
  for (int64_t i = 0; i < 20; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_GE(norm.At(i, j), 0.0f);
      sum += norm.At(i, j);
    }
    EXPECT_LE(sum, 1.0f + 1e-4f);
    EXPECT_GT(sum, 0.9f);  // ε is tiny, so rows stay near-stochastic.
  }
}

TEST(MappingMatrixTest, NormalizedVariableMatchesTensorPath) {
  MappingConfig config;
  MappingMatrix m(10, 4, config);
  Rng rng(15);
  m.InitializeRandom(rng);
  EXPECT_TRUE(AllClose(m.Normalized()->value(), m.NormalizedTensor(),
                       1e-5f, 1e-7f));
}

TEST(MappingMatrixTest, ClassAwareInitFavorsSameClass) {
  MappingConfig config;
  MappingMatrix m(6, 4, config);
  m.InitializeClassAware({0, 0, 1, 1, -1, 0}, {0, 0, 1, 1});
  Tensor norm = m.NormalizedTensor();
  // Node 0 (class 0) weights synthetic nodes 0,1 above 2,3.
  EXPECT_GT(norm.At(0, 0), norm.At(0, 2));
  // Unlabeled node 4: uniform row.
  EXPECT_NEAR(norm.At(4, 0), norm.At(4, 3), 1e-5f);
}

TEST(MappingMatrixTest, NormalizationGradcheck) {
  MappingConfig config;
  MappingMatrix m(5, 3, config);
  Rng rng(16);
  m.InitializeRandom(rng);
  testing::ExpectGradientsMatch(m.Parameters(), [&] {
    Variable n = m.Normalized();
    return ops::SumAll(ops::Mul(n, n));
  });
}

TEST(MappingMatrixTest, SparsifyDropsBelowDelta) {
  MappingConfig config;
  MappingMatrix m(8, 4, config);
  m.InitializeClassAware({0, 0, 1, 1, 0, 1, 0, 1}, {0, 0, 1, 1});
  const Tensor norm = m.NormalizedTensor();
  // Pick a delta between the two weight levels in each row.
  const float low = norm.At(0, 2), high = norm.At(0, 0);
  ASSERT_LT(low, high);
  CsrMatrix sparse = m.Sparsify((low + high) / 2.0f);
  EXPECT_EQ(sparse.Nnz(), 8 * 2);  // Two same-class synthetic nodes per row.
}

TEST(MappingMatrixTest, EpsilonZeroesTinyWeights) {
  MappingConfig config;
  config.epsilon = 0.3f;  // Aggressive: uniform weight 1/4 < ε.
  MappingMatrix m(3, 4, config);
  m.InitializeClassAware({-1, -1, -1}, {0, 0, 1, 1});
  EXPECT_EQ(MaxAbs(m.NormalizedTensor()), 0.0f);
}

}  // namespace
}  // namespace mcond
