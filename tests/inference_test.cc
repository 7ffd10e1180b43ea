#include "eval/inference.h"

#include <gtest/gtest.h>

#include <numeric>

#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/experiment.h"
#include "nn/trainer.h"

namespace mcond {
namespace {

class InferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 61));
    rng_ = new Rng(61);
    GnnConfig gc;
    model_ = MakeGnn(GnnArch::kSgc, data_->train_graph.FeatureDim(),
                     data_->train_graph.num_classes(), gc, *rng_)
                 .release();
    GraphOperators ops_ctx = GraphOperators::FromGraph(data_->train_graph);
    TrainConfig tc;
    tc.epochs = 150;
    TrainNodeClassifier(*model_, ops_ctx, data_->train_graph.features(),
                        data_->train_graph.labels(),
                        data_->train_graph.LabeledNodes(), tc, *rng_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete rng_;
    delete data_;
  }

  static InductiveDataset* data_;
  static Rng* rng_;
  static GnnModel* model_;
};

InductiveDataset* InferenceTest::data_ = nullptr;
Rng* InferenceTest::rng_ = nullptr;
GnnModel* InferenceTest::model_ = nullptr;

TEST_F(InferenceTest, ServeOnOriginalShapesAndAccuracy) {
  InferenceResult res = ServeOnOriginal(*model_, data_->train_graph,
                                        data_->test, /*graph_batch=*/true,
                                        *rng_, /*repeats=*/2);
  EXPECT_EQ(res.logits.rows(), data_->test.size());
  EXPECT_EQ(res.logits.cols(), data_->train_graph.num_classes());
  EXPECT_GT(res.accuracy, 0.6);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.memory_bytes, 0);
  const Deployment dep =
      ComposeDeployment(data_->train_graph, data_->test, /*graph_batch=*/true);
  EXPECT_EQ(dep.operators.gcn_norm.rows(),
            data_->train_graph.NumNodes() + data_->test.size());
}

TEST_F(InferenceTest, NodeBatchDropsInterEdges) {
  // Fewer edges in the composed adjacency under node batch...
  const Deployment graph_dep =
      ComposeDeployment(data_->train_graph, data_->test, /*graph_batch=*/true);
  const Deployment node_dep = ComposeDeployment(
      data_->train_graph, data_->test, /*graph_batch=*/false);
  EXPECT_LT(node_dep.operators.gcn_norm.Nnz(),
            graph_dep.operators.gcn_norm.Nnz());
  // ...and so a smaller served footprint.
  InferenceResult graph_res = ServeOnOriginal(
      *model_, data_->train_graph, data_->test, true, *rng_, 1);
  InferenceResult node_res = ServeOnOriginal(
      *model_, data_->train_graph, data_->test, false, *rng_, 1);
  EXPECT_LT(node_res.memory_bytes, graph_res.memory_bytes);
}

TEST_F(InferenceTest, ServeOnCondensedUsesMappingConversion) {
  Rng sel_rng(3);
  const Tensor emb = data_->train_graph.normalized_adjacency().SpMM(
      data_->train_graph.features());
  const std::vector<int64_t> sel = SelectCoreset(
      CoresetMethod::kDegree, data_->train_graph, emb, 15, sel_rng);
  CondensedGraph cg = BuildCoresetGraph(data_->train_graph, sel);
  InferenceResult res = ServeOnCondensed(*model_, cg, data_->test,
                                         /*graph_batch=*/true, *rng_, 1);
  EXPECT_EQ(res.logits.rows(), data_->test.size());
  // Memory must be far below the original-graph deployment.
  InferenceResult orig = ServeOnOriginal(*model_, data_->train_graph,
                                         data_->test, true, *rng_, 1);
  EXPECT_LT(res.memory_bytes, orig.memory_bytes);
}

TEST_F(InferenceTest, EmptyMappingDies) {
  CondensedGraph cg;
  cg.graph = data_->train_graph;
  EXPECT_DEATH(ServeOnCondensed(*model_, cg, data_->test, true, *rng_, 1),
               "mapping");
}

TEST(ExperimentFormatTest, Formatters) {
  EXPECT_EQ(FormatAccuracy({0.784, 0.0012}), "78.40±0.12");
  EXPECT_EQ(FormatMillis(0.01234), "12.34");
  EXPECT_EQ(FormatBytes(2048.0), "2.0KB");
  EXPECT_EQ(FormatBytes(3.5 * 1024 * 1024), "3.50MB");
  EXPECT_EQ(FormatRatio(12.34), "12.3x");
  EXPECT_EQ(FormatFloat(1.23456, 3), "1.235");
}

TEST(ExperimentFormatTest, TablePrintsAllRows) {
  ResultTable table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  ::testing::internal::CaptureStdout();
  table.Print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("4"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ExperimentFormatTest, TableRowWidthMismatchDies) {
  ResultTable table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"1"}), "check");
}

}  // namespace
}  // namespace mcond
