// Cross-module property tests: the serving path must be internally
// consistent (ServeOn* ≡ manual compose + predict), the dense and sparse
// composition/normalization paths must agree, and the ℒ_ind forward pass
// (differentiable, block by block) must match the sparse serving pipeline
// on the same inputs.
#include <gtest/gtest.h>

#include <numeric>

#include "condense/dense_ops.h"
#include "condense/mcond.h"
#include "core/tensor_ops.h"
#include "data/datasets.h"
#include "dense_block_oracle.h"
#include "eval/inference.h"
#include "graph/compose.h"
#include "nn/trainer.h"

namespace mcond {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 71));
    rng_ = new Rng(71);
    GnnConfig gc;
    model_ = MakeGnn(GnnArch::kGcn, data_->train_graph.FeatureDim(),
                     data_->train_graph.num_classes(), gc, *rng_)
                 .release();
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

InductiveDataset* PipelineTest::data_ = nullptr;
Rng* PipelineTest::rng_ = nullptr;
GnnModel* PipelineTest::model_ = nullptr;

TEST_F(PipelineTest, ServeOnOriginalMatchesManualCompose) {
  InferenceResult res = ServeOnOriginal(*model_, data_->train_graph,
                                        data_->test, true, *rng_, 1);
  // Manual path.
  const CsrMatrix composed = ComposeBlockAdjacency(
      data_->train_graph.adjacency(), data_->test.links, data_->test.inter);
  GraphOperators ops_ctx = GraphOperators::FromAdjacency(composed);
  const Tensor features = ComposeFeatures(data_->train_graph.features(),
                                          data_->test.features);
  const Tensor logits = model_->Predict(ops_ctx, features, *rng_);
  const Tensor expected = SliceRows(logits, data_->train_graph.NumNodes(),
                                    data_->train_graph.NumNodes() +
                                        data_->test.size());
  EXPECT_TRUE(AllClose(res.logits, expected, 1e-4f, 1e-5f));
}

TEST_F(PipelineTest, DeploymentMatchesServeResult) {
  Deployment dep =
      ComposeDeployment(data_->train_graph, data_->test, /*graph_batch=*/true);
  EXPECT_EQ(dep.num_base, data_->train_graph.NumNodes());
  EXPECT_EQ(dep.batch_size, data_->test.size());
  EXPECT_EQ(static_cast<int64_t>(dep.known_labels.size()),
            dep.num_base + dep.batch_size);
  // Batch labels are hidden.
  for (int64_t i = dep.num_base; i < dep.num_base + dep.batch_size; ++i) {
    EXPECT_EQ(dep.known_labels[static_cast<size_t>(i)], -1);
  }
  const Tensor logits = model_->Predict(dep.operators, dep.features, *rng_);
  InferenceResult res = ServeOnOriginal(*model_, data_->train_graph,
                                        data_->test, true, *rng_, 1);
  EXPECT_TRUE(AllClose(
      SliceRows(logits, dep.num_base, dep.num_base + dep.batch_size),
      res.logits, 1e-4f, 1e-5f));
}

TEST_F(PipelineTest, BlockPropagationMatchesSparseComposition) {
  // ℒ_ind's differentiable block propagation must agree with the sparse
  // serving path: the support rows of
  // SymNormalize(ComposeBlockAdjacency(A, links, inter))^L · [X; X_sup].
  const Graph& g = data_->train_graph;
  HeldOutBatch batch = data_->test;
  const int64_t n = g.NumNodes();
  const CsrMatrix sparse_norm = SymNormalize(
      ComposeBlockAdjacency(g.adjacency(), batch.links, batch.inter));
  const Variable base = MakeConstant(g.adjacency().ToDense());
  const Variable links = MakeConstant(batch.links.ToDense());

  // The dense oracle of condense_units_test normalizes like the sparse
  // path too.
  const Tensor dense_norm =
      NormalizeDenseAdjacency(testing::ComposeDenseBlockAdjacency(
                                  base, links,
                                  MakeConstant(batch.inter.ToDense())))
          ->value();
  EXPECT_TRUE(AllClose(dense_norm, sparse_norm.ToDense(), 1e-4f, 1e-5f));

  Tensor sparse_z = ComposeFeatures(g.features(), batch.features);
  for (int64_t depth = 1; depth <= 3; ++depth) {
    sparse_z = sparse_norm.SpMM(sparse_z);
    const Tensor block_z =
        PropagateBlockSupportRows(base, links, batch.inter,
                                  MakeConstant(g.features()),
                                  MakeConstant(batch.features), depth)
            ->value();
    EXPECT_TRUE(AllClose(block_z, SliceRows(sparse_z, n, n + batch.size()),
                         1e-4f, 1e-5f))
        << "depth " << depth;
  }
}

TEST_F(PipelineTest, MappedLinksMatchSpGemm) {
  // aM via autograd SpMM(links, M_dense) == CsrMatrix::Multiply on the
  // sparse side when M has no sub-threshold entries.
  MCondConfig config;
  config.outer_rounds = 2;
  config.s_steps_per_round = 3;
  config.m_steps_per_round = 3;
  MCondResult r =
      RunMCond(data_->train_graph, data_->val, 9, config, 71);
  const Tensor dense_links =
      ops::SpMM(data_->test.links, MakeConstant(r.dense_mapping))->value();
  const CsrMatrix dense_map_csr =
      CsrMatrix::FromDense(r.dense_mapping, 0.0f);
  const Tensor sparse_links =
      CsrMatrix::Multiply(data_->test.links, dense_map_csr).ToDense();
  EXPECT_TRUE(AllClose(dense_links, sparse_links, 1e-4f, 1e-4f));
}

TEST_F(PipelineTest, MemoryModelMatchesComponents) {
  InferenceResult res = ServeOnOriginal(*model_, data_->train_graph,
                                        data_->test, false, *rng_, 1);
  const HeldOutBatch nb = data_->test.WithoutInterEdges();
  const CsrMatrix composed = ComposeBlockAdjacency(
      data_->train_graph.adjacency(), nb.links, nb.inter);
  const int64_t feature_bytes =
      (data_->train_graph.NumNodes() + data_->test.size()) *
      data_->train_graph.FeatureDim() * static_cast<int64_t>(sizeof(float));
  EXPECT_EQ(res.memory_bytes, composed.StorageBytes() + feature_bytes);
}

TEST_F(PipelineTest, CondensedMemoryIncludesMapping) {
  MCondConfig config;
  config.outer_rounds = 2;
  config.s_steps_per_round = 3;
  config.m_steps_per_round = 3;
  MCondResult r = RunMCond(data_->train_graph, data_->val, 9, config, 72);
  InferenceResult res = ServeOnCondensed(*model_, r.condensed, data_->test,
                                         false, *rng_, 1);
  EXPECT_GE(res.memory_bytes, r.condensed.mapping.StorageBytes());
  // And far below the original deployment on this density.
  InferenceResult orig = ServeOnOriginal(*model_, data_->train_graph,
                                         data_->test, false, *rng_, 1);
  EXPECT_LT(res.memory_bytes, orig.memory_bytes);
}

TEST_F(PipelineTest, GraphBatchNeverSlowerPathCheck) {
  // Sanity on the timing harness itself: repeated serving returns a
  // strictly positive mean and identical logits across repeats.
  InferenceResult once = ServeOnOriginal(*model_, data_->train_graph,
                                         data_->test, true, *rng_, 1);
  InferenceResult thrice = ServeOnOriginal(*model_, data_->train_graph,
                                           data_->test, true, *rng_, 3);
  EXPECT_GT(once.seconds, 0.0);
  EXPECT_GT(thrice.seconds, 0.0);
  EXPECT_TRUE(AllClose(once.logits, thrice.logits));
}

}  // namespace
}  // namespace mcond
