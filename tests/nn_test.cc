#include "nn/module.h"

#include <gtest/gtest.h>

#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "gradcheck.h"
#include "nn/linear.h"
#include "nn/metrics.h"
#include "nn/trainer.h"

namespace mcond {
namespace {

struct ZooCase {
  GnnArch arch;
};

class GnnZooTest : public ::testing::TestWithParam<ZooCase> {};

Graph TestGraph(uint64_t seed = 11) {
  SbmConfig config;
  config.num_nodes = 120;
  config.num_classes = 3;
  config.feature_dim = 10;
  config.avg_degree = 8.0;
  config.homophily = 0.9;
  config.feature_noise = 0.6;
  Rng rng(seed);
  return GenerateSbmGraph(config, rng);
}

TEST_P(GnnZooTest, ForwardShapeIsNodesByClasses) {
  Graph g = TestGraph();
  Rng rng(1);
  GnnConfig config;
  config.hidden_dim = 16;
  auto model = MakeGnn(GetParam().arch, g.FeatureDim(), g.num_classes(),
                       config, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  Tensor logits = model->Predict(ops_ctx, g.features(), rng);
  EXPECT_EQ(logits.rows(), g.NumNodes());
  EXPECT_EQ(logits.cols(), g.num_classes());
  EXPECT_TRUE(logits.AllFinite());
}

TEST_P(GnnZooTest, TrainingBeatsChance) {
  Graph g = TestGraph();
  Rng rng(2);
  GnnConfig config;
  config.hidden_dim = 16;
  auto model = MakeGnn(GetParam().arch, g.FeatureDim(), g.num_classes(),
                       config, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  std::vector<int64_t> nodes = g.LabeledNodes();
  TrainConfig tc;
  tc.epochs = 120;
  tc.lr = 0.05f;
  TrainNodeClassifier(*model, ops_ctx, g.features(), g.labels(), nodes, tc,
                      rng);
  const double acc = AccuracyFromLogits(
      model->Predict(ops_ctx, g.features(), rng), g.labels());
  EXPECT_GT(acc, 0.7) << GnnArchName(GetParam().arch);
}

TEST_P(GnnZooTest, ParameterGradientsAreExact) {
  // Gradcheck through the full architecture on a minuscule graph.
  SbmConfig config;
  config.num_nodes = 12;
  config.num_classes = 2;
  config.feature_dim = 4;
  config.avg_degree = 3.0;
  Rng grng(3);
  Graph g = GenerateSbmGraph(config, grng);
  Rng rng(4);
  GnnConfig gc;
  gc.hidden_dim = 3;
  gc.appnp_iterations = 3;
  auto model = MakeGnn(GetParam().arch, g.FeatureDim(), g.num_classes(),
                       gc, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  // Architectures with ReLU hidden layers make central differences noisy
  // (perturbation can flip units), so the tolerance is looser than for the
  // op-level gradchecks, which pin down exactness.
  testing::ExpectGradientsMatch(
      model->Parameters(),
      [&] {
        Variable logits = model->Forward(ops_ctx, MakeConstant(g.features()),
                                         /*training=*/false, rng);
        return ops::SoftmaxCrossEntropy(logits, g.labels());
      },
      /*eps=*/5e-3f, /*rel_tol=*/0.12f, /*abs_tol=*/5e-3f);
}

TEST_P(GnnZooTest, ResetParametersChangesOutput) {
  Graph g = TestGraph();
  Rng rng(5);
  GnnConfig config;
  config.hidden_dim = 8;
  auto model = MakeGnn(GetParam().arch, g.FeatureDim(), g.num_classes(),
                       config, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  Tensor before = model->Predict(ops_ctx, g.features(), rng);
  model->ResetParameters(rng);
  Tensor after = model->Predict(ops_ctx, g.features(), rng);
  EXPECT_GT(MaxAbsDiff(before, after), 1e-4f);
}

TEST_P(GnnZooTest, SnapshotRestoreRoundTrips) {
  Rng rng(6);
  GnnConfig config;
  config.hidden_dim = 8;
  auto model = MakeGnn(GetParam().arch, 10, 3, config, rng);
  const std::vector<Tensor> snap = model->SnapshotParameters();
  model->ResetParameters(rng);
  model->RestoreParameters(snap);
  const std::vector<Tensor> back = model->SnapshotParameters();
  ASSERT_EQ(snap.size(), back.size());
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_TRUE(AllClose(snap[i], back[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, GnnZooTest,
    ::testing::Values(ZooCase{GnnArch::kSgc}, ZooCase{GnnArch::kGcn},
                      ZooCase{GnnArch::kGraphSage}, ZooCase{GnnArch::kAppnp},
                      ZooCase{GnnArch::kCheby}),
    [](const ::testing::TestParamInfo<ZooCase>& info) {
      return GnnArchName(info.param.arch);
    });

TEST(LinearTest, ForwardMatchesManualCompute) {
  Rng rng(7);
  Linear linear(3, 2, /*use_bias=*/true, rng);
  Tensor x = rng.NormalTensor(4, 3);
  Variable y = linear.Forward(MakeConstant(x));
  Tensor expect = MatMul(x, linear.weight()->value());
  // Bias is zero-initialized, so the result should match the pure matmul.
  EXPECT_TRUE(AllClose(y->value(), expect));
}

TEST(MlpTest, HiddenReluZeroesNegatives) {
  Rng rng(8);
  Mlp mlp({2, 4, 2}, 0.0f, rng);
  EXPECT_EQ(mlp.Parameters().size(), 4u);  // Two layers × (W, b).
}

TEST(MetricsTest, AccuracyFromLogits) {
  Tensor logits = Tensor::FromVector(3, 2, {2, 1, 0, 3, 5, 4});
  EXPECT_DOUBLE_EQ(AccuracyFromLogits(logits, {0, 1, 0}), 1.0);
  EXPECT_NEAR(AccuracyFromLogits(logits, {1, 1, 0}), 2.0 / 3.0, 1e-9);
  // Unlabeled rows are skipped.
  EXPECT_DOUBLE_EQ(AccuracyFromLogits(logits, {-1, 1, 0}), 1.0);
}

TEST(MetricsTest, OneHot) {
  Tensor oh = OneHot({1, -1, 0}, 3);
  EXPECT_EQ(oh.At(0, 1), 1.0f);
  EXPECT_EQ(oh.At(1, 0) + oh.At(1, 1) + oh.At(1, 2), 0.0f);
  EXPECT_EQ(oh.At(2, 0), 1.0f);
}

TEST(MetricsTest, Summarize) {
  MeanStd s = Summarize({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_NEAR(s.std, std::sqrt(2.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(Summarize({}).mean, 0.0);
}

TEST(TrainerTest, ValidationSelectionRestoresBest) {
  Graph g = TestGraph(12);
  Rng rng(9);
  GnnConfig config;
  config.hidden_dim = 16;
  auto model =
      MakeGnn(GnnArch::kGcn, g.FeatureDim(), g.num_classes(), config, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  int calls = 0;
  TrainConfig tc;
  tc.epochs = 30;
  tc.eval_every = 10;
  TrainResult result = TrainNodeClassifier(
      *model, ops_ctx, g.features(), g.labels(), g.LabeledNodes(), tc, rng,
      [&] {
        ++calls;
        return static_cast<double>(calls);  // Monotone: final is best.
      });
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(result.best_eval, 3.0);
}

TEST(TrainerTest, NoLabeledNodesDies) {
  Graph g = TestGraph(13);
  Rng rng(10);
  GnnConfig config;
  auto model =
      MakeGnn(GnnArch::kSgc, g.FeatureDim(), g.num_classes(), config, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  TrainConfig tc;
  EXPECT_DEATH(TrainNodeClassifier(*model, ops_ctx, g.features(), g.labels(),
                                   {}, tc, rng),
               "no labeled");
}

TEST(GraphOperatorsTest, AllKernelsBuilt) {
  Graph g = TestGraph(14);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  EXPECT_EQ(ops_ctx.gcn_norm.rows(), g.NumNodes());
  EXPECT_EQ(ops_ctx.row_norm.rows(), g.NumNodes());
  EXPECT_EQ(ops_ctx.sym_no_loop.rows(), g.NumNodes());
  // gcn_norm has self-loops, sym_no_loop does not.
  EXPECT_GT(ops_ctx.gcn_norm.ToDense().At(0, 0), 0.0f);
  EXPECT_EQ(ops_ctx.sym_no_loop.ToDense().At(0, 0), 0.0f);
}

}  // namespace
}  // namespace mcond
