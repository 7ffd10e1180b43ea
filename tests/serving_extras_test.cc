// Tests for the serving-side extras: batching utilities and the Correct &
// Smooth calibrator.
#include <gtest/gtest.h>

#include <numeric>

#include "condense/mcond.h"
#include "core/tensor_ops.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "eval/inference.h"
#include "nn/metrics.h"
#include "nn/sgc.h"
#include "nn/trainer.h"
#include "propagation/correct_and_smooth.h"

namespace mcond {
namespace {

class ServingExtrasTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 81));
    MCondConfig config;
    config.outer_rounds = 4;
    config.s_steps_per_round = 6;
    config.m_steps_per_round = 4;
    result_ = new MCondResult(
        RunMCond(data_->train_graph, data_->val, 12, config, 81));
    rng_ = new Rng(81);
    GnnConfig gc;
    sgc_ = new Sgc(data_->train_graph.FeatureDim(),
                   data_->train_graph.num_classes(), gc, *rng_);
    GraphOperators ops_ctx =
        GraphOperators::FromGraph(result_->condensed.graph);
    std::vector<int64_t> all(result_->condensed.graph.NumNodes());
    std::iota(all.begin(), all.end(), 0);
    TrainConfig tc;
    tc.epochs = 200;
    TrainNodeClassifier(*sgc_, ops_ctx, result_->condensed.graph.features(),
                        result_->condensed.graph.labels(), all, tc, *rng_);
  }
  static void TearDownTestSuite() {
    delete sgc_;
    delete rng_;
    delete result_;
    delete data_;
  }
  static InductiveDataset* data_;
  static MCondResult* result_;
  static Rng* rng_;
  static Sgc* sgc_;
};

InductiveDataset* ServingExtrasTest::data_ = nullptr;
MCondResult* ServingExtrasTest::result_ = nullptr;
Rng* ServingExtrasTest::rng_ = nullptr;
Sgc* ServingExtrasTest::sgc_ = nullptr;

TEST_F(ServingExtrasTest, SplitIntoBatchesPartitions) {
  const std::vector<HeldOutBatch> chunks =
      SplitIntoBatches(data_->test, 7);
  int64_t total = 0;
  int64_t total_links = 0;
  for (const HeldOutBatch& c : chunks) {
    EXPECT_LE(c.size(), 7);
    EXPECT_EQ(c.links.cols(), data_->train_graph.NumNodes());
    total += c.size();
    total_links += c.links.Nnz();
  }
  EXPECT_EQ(total, data_->test.size());
  // Links are partitioned exactly (each row keeps all of its links).
  EXPECT_EQ(total_links, data_->test.links.Nnz());
}

TEST_F(ServingExtrasTest, SubsetBatchKeepsIntraEdges) {
  std::vector<int64_t> all_idx(static_cast<size_t>(data_->test.size()));
  std::iota(all_idx.begin(), all_idx.end(), 0);
  HeldOutBatch whole = SubsetBatch(data_->test, all_idx);
  EXPECT_EQ(whole.inter.Nnz(), data_->test.inter.Nnz());
  EXPECT_TRUE(AllClose(whole.features, data_->test.features));
  EXPECT_EQ(whole.labels, data_->test.labels);
}

TEST_F(ServingExtrasTest, SubsetBatchValidatesIndices) {
  EXPECT_DEATH(SubsetBatch(data_->test, {0, 0}), "duplicate");
  EXPECT_DEATH(SubsetBatch(data_->test, {data_->test.size()}), "index");
}

TEST_F(ServingExtrasTest, ServingChunksAgreeWithFullBatchPredictions) {
  // Even in node-batch mode, batch members interact through two-hop paths
  // via shared base nodes (b ← s ← b') and through the base degree shift,
  // so chunked logits differ slightly from one big batch — but the
  // *predictions* must agree almost everywhere.
  InferenceResult full = ServeOnCondensed(*sgc_, result_->condensed,
                                          data_->test, false, *rng_, 1);
  const std::vector<int64_t> full_pred = ArgmaxRows(full.logits);
  const std::vector<HeldOutBatch> chunks = SplitIntoBatches(data_->test, 5);
  int64_t row = 0;
  int64_t agree = 0;
  for (const HeldOutBatch& c : chunks) {
    InferenceResult part = ServeOnCondensed(*sgc_, result_->condensed, c,
                                            false, *rng_, 1);
    const std::vector<int64_t> part_pred = ArgmaxRows(part.logits);
    for (int64_t i = 0; i < c.size(); ++i) {
      agree += (part_pred[static_cast<size_t>(i)] ==
                full_pred[static_cast<size_t>(row + i)]);
    }
    row += c.size();
  }
  EXPECT_GE(agree, data_->test.size() * 8 / 10);
}

TEST_F(ServingExtrasTest, CorrectAndSmoothBeatsOrMatchesVanilla) {
  Deployment dep =
      ComposeDeployment(result_->condensed, data_->test, true);
  const Tensor logits = sgc_->Predict(dep.operators, dep.features, *rng_);
  const Tensor cs =
      CorrectAndSmooth(dep.operators.gcn_norm, logits, dep.known_labels);
  const double vanilla = AccuracyFromLogits(
      SliceRows(logits, dep.num_base, dep.num_base + dep.batch_size),
      data_->test.labels);
  const double calibrated = AccuracyFromLogits(
      SliceRows(cs, dep.num_base, dep.num_base + dep.batch_size),
      data_->test.labels);
  EXPECT_GE(calibrated, vanilla - 0.05);
}

TEST_F(ServingExtrasTest, CorrectAndSmoothClampsKnownNodes) {
  Deployment dep =
      ComposeDeployment(result_->condensed, data_->test, true);
  const Tensor logits = sgc_->Predict(dep.operators, dep.features, *rng_);
  const Tensor cs =
      CorrectAndSmooth(dep.operators.gcn_norm, logits, dep.known_labels);
  // Known (synthetic) nodes keep their own label as argmax after smoothing.
  const std::vector<int64_t> pred = ArgmaxRows(cs);
  int64_t correct = 0, total = 0;
  for (int64_t i = 0; i < dep.num_base; ++i) {
    if (dep.known_labels[static_cast<size_t>(i)] < 0) continue;
    ++total;
    correct +=
        (pred[static_cast<size_t>(i)] ==
         dep.known_labels[static_cast<size_t>(i)]);
  }
  EXPECT_GE(correct, total * 8 / 10);
}

}  // namespace
}  // namespace mcond
