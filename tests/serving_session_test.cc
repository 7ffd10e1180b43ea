// Tests for the persistent ServingSession (src/serve/) and the
// ServeOnCondensed / ServeOnOriginal helpers built on it: bit-identical
// logits vs the from-scratch ComposeDeployment oracle across architectures,
// batch modes, and thread widths; the paper's memory model; buffer reuse
// across a batch stream; and the steady-state zero-tensor-heap-allocation
// contract.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "eval/inference.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

constexpr GnnArch kAllArchs[] = {GnnArch::kSgc, GnnArch::kGcn,
                                 GnnArch::kGraphSage, GnnArch::kAppnp,
                                 GnnArch::kCheby};

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << "logits differ at the bit level";
}

class ServingSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 41));
    const Graph& train = data_->train_graph;
    Rng rng(42);
    const std::vector<int64_t> selected =
        SelectCoreset(CoresetMethod::kRandom, train, train.features(),
                      /*num_select=*/24, rng);
    condensed_ = new CondensedGraph(BuildCoresetGraph(train, selected));
  }
  static void TearDownTestSuite() {
    delete condensed_;
    delete data_;
  }

  static std::unique_ptr<GnnModel> MakeModel(GnnArch arch) {
    // Deterministically initialized, untrained: bit patterns and serving
    // cost do not depend on training, and Predict is deterministic.
    Rng rng(7);
    GnnConfig gc;
    const Graph& g = condensed_->graph;
    return MakeGnn(arch, g.FeatureDim(), g.num_classes(), gc, rng);
  }

  /// The oracle: compose the deployment from scratch (ComposeDeployment),
  /// run Predict over it, and slice the batch rows.
  static Tensor PerRequestLogits(GnnModel& model, const HeldOutBatch& batch,
                                 bool graph_batch, bool on_condensed) {
    Rng rng(9);
    Deployment dep =
        on_condensed
            ? ComposeDeployment(*condensed_, batch, graph_batch)
            : ComposeDeployment(data_->train_graph, batch, graph_batch);
    const Tensor logits = model.Predict(dep.operators, dep.features, rng);
    return SliceRows(logits, dep.num_base, dep.num_base + dep.batch_size);
  }

  static InductiveDataset* data_;
  static CondensedGraph* condensed_;
};

InductiveDataset* ServingSessionTest::data_ = nullptr;
CondensedGraph* ServingSessionTest::condensed_ = nullptr;

TEST_F(ServingSessionTest, BitIdenticalAcrossArchitecturesAndBatchModes) {
  // Every architecture: together they exercise all three cached operators
  // (gcn_norm, row_norm, sym_no_loop).
  for (const GnnArch arch : kAllArchs) {
    std::unique_ptr<GnnModel> model = MakeModel(arch);
    for (const bool graph_batch : {true, false}) {
      const Tensor expect =
          PerRequestLogits(*model, data_->test, graph_batch,
                           /*on_condensed=*/true);
      ServingSession session(*condensed_, *model);
      Rng rng(9);
      const Tensor& got = session.Serve(data_->test, graph_batch, rng);
      ExpectBitEqual(expect, got);
      EXPECT_EQ(session.fallback_serves(), 0);
    }
  }
}

TEST_F(ServingSessionTest, BitIdenticalOnOriginalGraph) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  for (const bool graph_batch : {true, false}) {
    const Tensor expect = PerRequestLogits(*model, data_->test, graph_batch,
                                           /*on_condensed=*/false);
    ServingSession session(data_->train_graph, *model);
    Rng rng(9);
    const Tensor& got = session.Serve(data_->test, graph_batch, rng);
    ExpectBitEqual(expect, got);
  }
}

TEST_F(ServingSessionTest, BitIdenticalAcrossThreadWidths) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  const Tensor expect = PerRequestLogits(*model, data_->test,
                                         /*graph_batch=*/true,
                                         /*on_condensed=*/true);
  for (const int threads : {1, 8}) {
    ThreadPool::Global().SetNumThreads(threads);
    ServingSession session(*condensed_, *model);
    Rng rng(9);
    ExpectBitEqual(expect,
                   session.Serve(data_->test, /*graph_batch=*/true, rng));
  }
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}

TEST_F(ServingSessionTest, StreamedBatchesMatchPerRequestIncludingResize) {
  // A realistic request stream: uneven batch sizes (the tail batch is
  // smaller) force the shape-dependent buffers to re-warm mid-stream.
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data_->test, 7);
  ASSERT_GT(batches.size(), 1u);
  ServingSession session(*condensed_, *model);
  for (const HeldOutBatch& batch : batches) {
    const Tensor expect = PerRequestLogits(*model, batch,
                                           /*graph_batch=*/false,
                                           /*on_condensed=*/true);
    Rng rng(9);
    ExpectBitEqual(expect, session.Serve(batch, /*graph_batch=*/false, rng));
  }
  EXPECT_EQ(session.fallback_serves(), 0);
}

TEST_F(ServingSessionTest, RepeatedServesAreStable) {
  // Serving the same batch twice through one session must give the same
  // bits: the epoch-stamped scratch fully resets between requests.
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  ServingSession session(*condensed_, *model);
  Rng rng(9);
  const Tensor first = session.Serve(data_->test, /*graph_batch=*/true, rng);
  const Tensor& second =
      session.Serve(data_->test, /*graph_batch=*/true, rng);
  ExpectBitEqual(first, second);
}

TEST_F(ServingSessionTest, SteadyStateServesDoNotTouchTensorHeap) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  ServingSession session(*condensed_, *model);
  Rng rng(9);
  // Two warm-up serves: the first sizes every workspace, the second lets
  // the arena settle into its final page set.
  session.Serve(data_->test, /*graph_batch=*/true, rng);
  session.Serve(data_->test, /*graph_batch=*/true, rng);
  const int64_t warm = internal::TensorHeapAllocCount();
  for (int i = 0; i < 3; ++i) {
    session.Serve(data_->test, /*graph_batch=*/true, rng);
  }
  EXPECT_EQ(internal::TensorHeapAllocCount(), warm)
      << "steady-state Serve must not allocate tensor memory on the heap";
  EXPECT_EQ(session.fallback_serves(), 0);
}

TEST_F(ServingSessionTest, ServeOnHelpersMatchOracleEndToEnd) {
  // The high-level API serves through a session; its logits must equal the
  // oracle's bit for bit on both graphs, for every architecture and batch
  // mode, and `memory_bytes` must follow the paper's memory model: composed
  // CSR bytes + (N+n)·d feature floats (+ mapping bytes on S).
  for (const GnnArch arch : kAllArchs) {
    std::unique_ptr<GnnModel> model = MakeModel(arch);
    for (const bool graph_batch : {true, false}) {
      for (const bool on_condensed : {true, false}) {
        Rng rng(9);
        const InferenceResult served =
            on_condensed
                ? ServeOnCondensed(*model, *condensed_, data_->test,
                                   graph_batch, rng, /*repeats=*/1)
                : ServeOnOriginal(*model, data_->train_graph, data_->test,
                                  graph_batch, rng, /*repeats=*/1);
        ExpectBitEqual(PerRequestLogits(*model, data_->test, graph_batch,
                                        on_condensed),
                       served.logits);
        const Deployment dep =
            on_condensed
                ? ComposeDeployment(*condensed_, data_->test, graph_batch)
                : ComposeDeployment(data_->train_graph, data_->test,
                                    graph_batch);
        const int64_t mapping_bytes =
            on_condensed ? condensed_->mapping.StorageBytes() : 0;
        EXPECT_EQ(served.memory_bytes,
                  dep.adjacency.StorageBytes() +
                      dep.features.size() *
                          static_cast<int64_t>(sizeof(float)) +
                      mapping_bytes);
      }
    }
  }
}

TEST_F(ServingSessionTest, BitIdenticalOverEdgelessBaseGraph) {
  // An edgeless base graph leaves the session's copy of the base adjacency
  // empty; serving must still match the oracle bit for bit.
  const Graph& g = condensed_->graph;
  CondensedGraph edgeless;
  edgeless.graph =
      Graph(CsrMatrix::FromTriplets(g.NumNodes(), g.NumNodes(), {}),
            g.features(), g.labels(), g.num_classes());
  edgeless.mapping = condensed_->mapping;
  for (const GnnArch arch : kAllArchs) {
    std::unique_ptr<GnnModel> model = MakeModel(arch);
    for (const bool graph_batch : {true, false}) {
      const Deployment dep =
          ComposeDeployment(edgeless, data_->test, graph_batch);
      Rng oracle_rng(9);
      const Tensor expect =
          SliceRows(model->Predict(dep.operators, dep.features, oracle_rng),
                    dep.num_base, dep.num_base + dep.batch_size);
      ServingSession session(edgeless, *model);
      Rng rng(9);
      ExpectBitEqual(expect, session.Serve(data_->test, graph_batch, rng));
      EXPECT_EQ(session.fallback_serves(), 0);
    }
  }
}

TEST_F(ServingSessionTest, CondensedSessionRequiresMapping) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  CondensedGraph no_mapping;
  no_mapping.graph = condensed_->graph;
  EXPECT_DEATH(ServingSession(no_mapping, *model), "mapping");
}

}  // namespace
}  // namespace mcond
