// Integration tests: the full Algorithm 1 pipeline on a small dataset,
// the GCond baseline, and end-to-end inductive serving quality.
#include "condense/mcond.h"

#include <gtest/gtest.h>

#include "condense/gcond.h"
#include "core/bit_digest.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "data/datasets.h"
#include "eval/inference.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "obs/resource.h"

namespace mcond {
namespace {

MCondConfig FastConfig() {
  MCondConfig config;
  config.outer_rounds = 5;
  config.s_steps_per_round = 6;
  config.m_steps_per_round = 6;
  return config;
}

class MCondPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 17));
    result_ = new MCondResult(RunMCond(data_->train_graph, data_->val,
                                       /*num_synthetic=*/12, FastConfig(),
                                       /*seed=*/17));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete data_;
    result_ = nullptr;
    data_ = nullptr;
  }

  static InductiveDataset* data_;
  static MCondResult* result_;
};

InductiveDataset* MCondPipelineTest::data_ = nullptr;
MCondResult* MCondPipelineTest::result_ = nullptr;

TEST_F(MCondPipelineTest, ShapesAreConsistent) {
  const Graph& s = result_->condensed.graph;
  EXPECT_EQ(s.NumNodes(), 12);
  EXPECT_EQ(s.FeatureDim(), data_->train_graph.FeatureDim());
  EXPECT_EQ(s.num_classes(), data_->train_graph.num_classes());
  EXPECT_EQ(result_->condensed.mapping.rows(),
            data_->train_graph.NumNodes());
  EXPECT_EQ(result_->condensed.mapping.cols(), 12);
  EXPECT_EQ(result_->dense_adjacency.rows(), 12);
  EXPECT_EQ(result_->dense_mapping.rows(), data_->train_graph.NumNodes());
}

TEST_F(MCondPipelineTest, ArtifactsAreFiniteAndNonNegative) {
  EXPECT_TRUE(result_->synthetic_features.AllFinite());
  EXPECT_TRUE(result_->dense_adjacency.AllFinite());
  EXPECT_TRUE(result_->dense_mapping.AllFinite());
  for (float v : result_->condensed.mapping.values()) EXPECT_GE(v, 0.0f);
  for (float v : result_->condensed.graph.adjacency().values()) {
    EXPECT_GE(v, 0.0f);
  }
}

TEST_F(MCondPipelineTest, SyntheticLabelsCoverAllClasses) {
  std::vector<int64_t> counts(
      static_cast<size_t>(data_->train_graph.num_classes()), 0);
  for (int64_t y : result_->synthetic_labels) {
    ++counts[static_cast<size_t>(y)];
  }
  for (int64_t c : counts) EXPECT_GE(c, 1);
}

TEST_F(MCondPipelineTest, LossesDecrease) {
  ASSERT_GT(result_->s_loss_history.size(), 5u);
  ASSERT_GT(result_->m_loss_history.size(), 5u);
  // Mapping loss must improve from its initial value within the run.
  const float m_first = result_->m_loss_history.front();
  const float m_min = *std::min_element(result_->m_loss_history.begin(),
                                        result_->m_loss_history.end());
  EXPECT_LT(m_min, m_first);
}

TEST_F(MCondPipelineTest, MappingConcentratesOnSameClass) {
  // Trained M should put most mass on same-class synthetic nodes (Fig. 5a).
  const Tensor& m = result_->dense_mapping;
  double same = 0.0, total = 0.0;
  for (int64_t i = 0; i < m.rows(); ++i) {
    const int64_t yi =
        data_->train_graph.labels()[static_cast<size_t>(i)];
    for (int64_t j = 0; j < m.cols(); ++j) {
      total += m.At(i, j);
      if (result_->synthetic_labels[static_cast<size_t>(j)] == yi) {
        same += m.At(i, j);
      }
    }
  }
  EXPECT_GT(same / total, 0.5);
}

TEST_F(MCondPipelineTest, SparsifyRespectsThresholds) {
  const CondensedGraph tight = result_->Sparsify(/*mu=*/0.9f, /*delta=*/0.9f);
  const CondensedGraph loose = result_->Sparsify(/*mu=*/0.0f, /*delta=*/0.0f);
  EXPECT_LE(tight.graph.NumEdges(), loose.graph.NumEdges());
  EXPECT_LE(tight.mapping.Nnz(), loose.mapping.Nnz());
  EXPECT_EQ(loose.mapping.Nnz(),
            result_->dense_mapping.rows() * result_->dense_mapping.cols());
  for (float v : tight.mapping.values()) EXPECT_GE(v, 0.9f);
}

TEST_F(MCondPipelineTest, EndToEndInductiveAccuracyBeatsChance) {
  Rng rng(3);
  GnnConfig gc;
  auto model = MakeGnn(GnnArch::kSgc, data_->train_graph.FeatureDim(),
                       data_->train_graph.num_classes(), gc, rng);
  GraphOperators syn_ops =
      GraphOperators::FromGraph(result_->condensed.graph);
  std::vector<int64_t> all(result_->condensed.graph.NumNodes());
  std::iota(all.begin(), all.end(), 0);
  TrainConfig tc;
  tc.epochs = 200;
  TrainNodeClassifier(*model, syn_ops, result_->condensed.graph.features(),
                      result_->condensed.graph.labels(), all, tc, rng);
  InferenceResult res = ServeOnCondensed(*model, result_->condensed,
                                         data_->test, /*graph_batch=*/true,
                                         rng, /*repeats=*/1);
  EXPECT_GT(res.accuracy, 0.6);  // 3 classes → chance ≈ 0.33.
  // Node-batch serving works too and stays above chance.
  InferenceResult node_res = ServeOnCondensed(
      *model, result_->condensed, data_->test, /*graph_batch=*/false, rng, 1);
  EXPECT_GT(node_res.accuracy, 0.6);
}

TEST_F(MCondPipelineTest, DeterministicGivenSeed) {
  MCondResult again = RunMCond(data_->train_graph, data_->val, 12,
                               FastConfig(), /*seed=*/17);
  EXPECT_TRUE(
      AllClose(again.synthetic_features, result_->synthetic_features));
  EXPECT_TRUE(AllClose(again.dense_mapping, result_->dense_mapping));
}

// Paper-level behaviour pinned bit for bit: the tiny-sim MCond artifact
// (X', dense A', dense M and the ℒ_S history) on the scalar SIMD tier with
// every ParallelFor inline at width 1 — the one oracle configuration. A
// refactor that changes any of these bits must re-pin them on purpose.
//
// The values hold for x86-64 builds without FP contraction (the release,
// asan and tsan presets); -march=native enables FMA, which lets the compiler
// fuse multiply-adds outside the kernels and changes the bits.
TEST(MCondGoldenTest, TinySimArtifactDigestOnScalarTier) {
#if defined(__FMA__)
  GTEST_SKIP() << "golden digests are pinned for builds without FMA";
#endif
  const simd::Tier saved_tier = simd::ActiveTier();
  simd::SetTier(simd::Tier::kScalar);
  MCondResult r;
  {
    ScopedInlineParallelRegion width_one;
    const InductiveDataset data = MakeDatasetByName("tiny-sim", 17);
    r = RunMCond(data.train_graph, data.val, /*num_synthetic=*/12,
                 FastConfig(), /*seed=*/17);
  }
  simd::SetTier(saved_tier);

  EXPECT_EQ(BitDigest(r.synthetic_features), 0xfc4aadcc42fcc6a1ull);
  EXPECT_EQ(BitDigest(r.dense_adjacency), 0xc3efee9378655d24ull);
  EXPECT_EQ(BitDigest(r.dense_mapping), 0xbfb5750b0b4a6a2eull);
  EXPECT_EQ(BitDigest(r.s_loss_history), 0xb6ea2a5b64303004ull);
}

TEST(MCondObservabilityTest, CondensePublishesItsFaultsAndSystemTime) {
  const InductiveDataset data = MakeDatasetByName("tiny-sim", 41);
  MCondConfig config = FastConfig();
  config.outer_rounds = 1;
  obs::Counter& faults = obs::GetCounter("mcond.condense.minor_faults");
  obs::Counter& sys_us = obs::GetCounter("mcond.condense.sys_us");
  const int64_t faults_before = faults.Value();
  const int64_t sys_before = sys_us.Value();
  const obs::ProcessUsage around_before = obs::CurrentProcessUsage();
  RunMCond(data.train_graph, data.val, 12, config, 41);
  const obs::ProcessUsage around_after = obs::CurrentProcessUsage();
  // The counters carry the call's own getrusage delta, which lies inside
  // the process-wide delta taken around it.
  const int64_t call_faults = faults.Value() - faults_before;
  const int64_t call_sys_us = sys_us.Value() - sys_before;
  EXPECT_GT(call_faults, 0);
  EXPECT_LE(call_faults,
            around_after.minor_faults - around_before.minor_faults);
  EXPECT_GE(call_sys_us, 0);
  EXPECT_LE(call_sys_us, around_after.sys_us - around_before.sys_us);
}

TEST(MCondAblationTest, SwitchesDisableComponents) {
  InductiveDataset data = MakeDatasetByName("tiny-sim", 19);
  MCondConfig config = FastConfig();
  config.outer_rounds = 2;
  config.use_structure_loss = false;
  config.use_inductive_loss = false;
  MCondResult plain =
      RunMCond(data.train_graph, data.val, 12, config, 19);
  EXPECT_GT(plain.condensed.mapping.Nnz(), 0);  // ℒ_tra still trains M.
  EXPECT_TRUE(plain.dense_mapping.AllFinite());
}

TEST(MCondAblationTest, OneStepMatchingRuns) {
  InductiveDataset data = MakeDatasetByName("tiny-sim", 37);
  MCondConfig config = FastConfig();
  config.one_step_matching = true;
  MCondResult r = RunMCond(data.train_graph, data.val, 12, config, 37);
  EXPECT_TRUE(r.synthetic_features.AllFinite());
  EXPECT_GT(r.condensed.mapping.Nnz(), 0);
  // One-step matching must still produce a usable S: train + serve above
  // chance.
  Rng rng(38);
  GnnConfig gc;
  auto model = MakeGnn(GnnArch::kSgc, data.train_graph.FeatureDim(),
                       data.train_graph.num_classes(), gc, rng);
  GraphOperators syn_ops = GraphOperators::FromGraph(r.condensed.graph);
  std::vector<int64_t> all(r.condensed.graph.NumNodes());
  std::iota(all.begin(), all.end(), 0);
  TrainConfig tc;
  tc.epochs = 200;
  TrainNodeClassifier(*model, syn_ops, r.condensed.graph.features(),
                      r.condensed.graph.labels(), all, tc, rng);
  InferenceResult res = ServeOnCondensed(*model, r.condensed, data.test,
                                         true, rng, 1);
  EXPECT_GT(res.accuracy, 0.5);
}

TEST(GCondTest, ProducesGraphWithoutMapping) {
  InductiveDataset data = MakeDatasetByName("tiny-sim", 23);
  MCondConfig config = FastConfig();
  config.outer_rounds = 3;
  MCondResult gcond = RunGCond(data.train_graph, 12, config, 23);
  EXPECT_EQ(gcond.condensed.mapping.Nnz(), 0);
  EXPECT_EQ(gcond.condensed.graph.NumNodes(), 12);
  EXPECT_TRUE(gcond.m_loss_history.empty());
  EXPECT_FALSE(gcond.s_loss_history.empty());
}

TEST(GCondTest, TrainedOnSyntheticServesOnOriginal) {
  // The S→O setting: GCond's graph trains a GNN that must transfer to the
  // original graph above chance.
  InductiveDataset data = MakeDatasetByName("tiny-sim", 29);
  MCondConfig config = FastConfig();
  MCondResult gcond = RunGCond(data.train_graph, 12, config, 29);
  Rng rng(5);
  GnnConfig gc;
  auto model = MakeGnn(GnnArch::kSgc, data.train_graph.FeatureDim(),
                       data.train_graph.num_classes(), gc, rng);
  GraphOperators syn_ops = GraphOperators::FromGraph(gcond.condensed.graph);
  std::vector<int64_t> all(gcond.condensed.graph.NumNodes());
  std::iota(all.begin(), all.end(), 0);
  TrainConfig tc;
  tc.epochs = 200;
  TrainNodeClassifier(*model, syn_ops, gcond.condensed.graph.features(),
                      gcond.condensed.graph.labels(), all, tc, rng);
  InferenceResult res = ServeOnOriginal(*model, data.train_graph, data.test,
                                        /*graph_batch=*/true, rng, 1);
  EXPECT_GT(res.accuracy, 0.6);
}

TEST(MCondConfigTest, NumSyntheticBoundsChecked) {
  InductiveDataset data = MakeDatasetByName("tiny-sim", 31);
  MCondConfig config = FastConfig();
  EXPECT_DEATH(RunMCond(data.train_graph, data.val, 1, config, 1), "check");
}

}  // namespace
}  // namespace mcond
