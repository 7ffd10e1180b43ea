// Tests for the persistent ServingSession (src/serve/) and the
// ServeOnCondensed / ServeOnOriginal helpers built on it: bit-identical
// logits vs the from-scratch ComposeDeployment oracle across architectures,
// batch modes, and thread widths; the paper's memory model; buffer reuse
// across a batch stream; the aM conversion across occupancy-bitmap words;
// and the steady-state zero-tensor-heap-allocation contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <numeric>

#include "core/parallel.h"
#include "core/simd.h"
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
  // Every architecture: together they exercise the session bases of all
  // three operators (gcn_norm, row_norm, sym_no_loop).
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
}

TEST_F(ServingSessionTest, RepeatedServesAreStable) {
  // Serving the same batch twice through one session must give the same
  // bits: the epoch-stamped scratch fully resets between requests. Every
  // architecture, so each of the three operator build paths is covered.
  for (const GnnArch arch : kAllArchs) {
    std::unique_ptr<GnnModel> model = MakeModel(arch);
    ServingSession session(*condensed_, *model);
    Rng rng(9);
    const Tensor first =
        session.Serve(data_->test, /*graph_batch=*/true, rng);
    const Tensor& second =
        session.Serve(data_->test, /*graph_batch=*/true, rng);
    ExpectBitEqual(first, second);
  }
}

TEST_F(ServingSessionTest, SteadyStateServesDoNotTouchTensorHeap) {
  for (const GnnArch arch : kAllArchs) {
    std::unique_ptr<GnnModel> model = MakeModel(arch);
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
        << GnnArchName(arch)
        << ": steady-state Serve must not allocate tensor memory on the heap";
  }
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
    }
  }
}

TEST_F(ServingSessionTest, CondensedSessionRequiresMapping) {
  std::unique_ptr<GnnModel> model = MakeModel(GnnArch::kSgc);
  CondensedGraph no_mapping;
  no_mapping.graph = condensed_->graph;
  EXPECT_DEATH(ServingSession(no_mapping, *model), "mapping");
}

/// One model per operator: SGC reads gcn_norm, GraphSAGE row_norm and
/// ChebNet sym_no_loop.
constexpr GnnArch kOneArchPerOperator[] = {GnnArch::kSgc, GnnArch::kGraphSage,
                                           GnnArch::kCheby};

/// Bytes a SessionBase over `g` held when it cached all three operators: Ã
/// and SymNormalize(A, false) as CSR, the double degree partials of Ã and
/// A, three float normalizer arrays, and CSC indexes over Ã and A.
int64_t ThreeOperatorBaseBytes(const Graph& g) {
  const int64_t n = g.NumNodes();
  const int64_t nnz_loops = AddSelfLoops(g.adjacency()).Nnz();
  const int64_t nnz = g.NumEdges();
  const auto index_bytes = [&](int64_t entries, int64_t bytes_per_entry) {
    return (n + 1) * static_cast<int64_t>(sizeof(int64_t)) +
           entries * bytes_per_entry;
  };
  const int64_t csr = sizeof(int32_t) + sizeof(float);
  const int64_t csc = sizeof(int32_t) + sizeof(int64_t);
  return index_bytes(nnz_loops, csr) + index_bytes(nnz, csr) +
         2 * n * static_cast<int64_t>(sizeof(double)) +
         3 * n * static_cast<int64_t>(sizeof(float)) +
         index_bytes(nnz_loops, csc) + index_bytes(nnz, csc);
}

TEST_F(ServingSessionTest, BaseHoldsOnlyItsOperatorsCaches) {
  for (const bool on_condensed : {true, false}) {
    const Graph& g = on_condensed ? condensed_->graph : data_->train_graph;
    const int64_t three_ops = ThreeOperatorBaseBytes(g);
    for (const GnnArch arch : kOneArchPerOperator) {
      const OperatorKind kind = MakeModel(arch)->operator_kind();
      const std::shared_ptr<const SessionBase> base =
          on_condensed ? SessionBase::Build(*condensed_, kind)
                       : SessionBase::Build(g, kind);
      EXPECT_EQ(base->kind, kind);
      EXPECT_EQ(static_cast<int64_t>(base->deg_acc.size()), g.NumNodes());
      EXPECT_EQ(static_cast<int64_t>(base->norm.size()), g.NumNodes());
      switch (kind) {
        case OperatorKind::kGcnNorm:
          // The values are the Graph's own GCN-normalized form.
          EXPECT_EQ(base->normalized.Nnz(), 0);
          EXPECT_TRUE(base->normalized.values().empty());
          EXPECT_EQ(base->base_values(),
                    g.normalized_adjacency().values().data());
          EXPECT_EQ(base->structure().Nnz(),
                    g.normalized_adjacency().Nnz());
          EXPECT_FALSE(base->csc.col_ptr.empty());
          break;
        case OperatorKind::kRowNorm:
          // row_norm values depend on the row degree only: no CSC index.
          EXPECT_TRUE(base->csc.col_ptr.empty());
          EXPECT_TRUE(base->csc.row.empty());
          EXPECT_TRUE(base->csc.val_idx.empty());
          EXPECT_EQ(base->normalized.Nnz(), base->loops.Nnz());
          break;
        case OperatorKind::kSymNoLoop:
          // The structure is the Graph's raw adjacency, borrowed.
          EXPECT_EQ(base->loops.Nnz(), 0);
          EXPECT_EQ(&base->structure(), &g.adjacency());
          EXPECT_EQ(base->normalized.Nnz(), g.NumEdges());
          EXPECT_FALSE(base->csc.col_ptr.empty());
          break;
      }
      EXPECT_GT(base->memory_bytes(), 0);
      EXPECT_LT(base->memory_bytes(), three_ops) << GnnArchName(arch);
      std::printf("%s base over %s (N=%lld): %lld bytes, three-operator "
                  "base %lld bytes\n",
                  GnnArchName(arch), on_condensed ? "S" : "T",
                  static_cast<long long>(g.NumNodes()),
                  static_cast<long long>(base->memory_bytes()),
                  static_cast<long long>(three_ops));
    }
  }
}

TEST_F(ServingSessionTest, SessionRejectsBaseOfAnotherOperator) {
  for (const GnnArch base_arch : kOneArchPerOperator) {
    const std::shared_ptr<const SessionBase> base = SessionBase::Build(
        *condensed_, MakeModel(base_arch)->operator_kind());
    for (const GnnArch arch : kOneArchPerOperator) {
      if (arch == base_arch) continue;
      std::unique_ptr<GnnModel> model = MakeModel(arch);
      EXPECT_DEATH(ServingSession(base, *model), "another operator");
    }
  }
}

/// A condensed deployment whose N' = 100 base nodes span two occupancy
/// bitmap words, the second one partial, under a dense mapping: every batch
/// row touches every base node, and batch row 0's sums at columns 5 and 70
/// (one in each word) cancel to exactly 0.0f.
class WideMappingServingTest : public ::testing::Test {
 protected:
  static constexpr int64_t kSyn = 100;  // N' > 64, N' mod 64 != 0
  static constexpr int64_t kOrig = 30;
  static constexpr int64_t kBatch = 6;
  static constexpr int64_t kDim = 8;
  static constexpr int64_t kClasses = 3;
  static constexpr int64_t kZeroCols[2] = {5, 70};

  static void SetUpTestSuite() {
    Rng rng(5);
    std::vector<Triplet> adj;
    for (int64_t i = 0; i < kSyn; ++i) {
      for (const int64_t step : {1, 7}) {
        const int64_t j = (i + step) % kSyn;
        const float w = rng.Uniform(0.5f, 1.5f);
        adj.push_back({i, j, w});
        adj.push_back({j, i, w});
      }
    }
    std::vector<int64_t> labels(static_cast<size_t>(kSyn));
    for (int64_t i = 0; i < kSyn; ++i) {
      labels[static_cast<size_t>(i)] = i % kClasses;
    }
    condensed_ = new CondensedGraph();
    condensed_->graph =
        Graph(CsrMatrix::FromTriplets(kSyn, kSyn, std::move(adj)),
              rng.NormalTensor(kSyn, kDim), std::move(labels), kClasses);
    std::vector<Triplet> map;
    for (int64_t o = 0; o < kOrig; ++o) {
      for (int64_t c = 0; c < kSyn; ++c) {
        float v = rng.Uniform(0.05f, 1.0f);
        if (o < 2 && (c == kZeroCols[0] || c == kZeroCols[1])) {
          v = o == 0 ? 0.25f : -0.25f;
        }
        map.push_back({o, c, v});
      }
    }
    condensed_->mapping = CsrMatrix::FromTriplets(kOrig, kSyn, std::move(map));

    batch_ = new HeldOutBatch();
    std::vector<Triplet> links = {{0, 0, 1.0f}, {0, 1, 1.0f}};
    for (int64_t i = 1; i < kBatch; ++i) {
      for (int64_t t = 0; t < 3; ++t) {
        links.push_back({i, (5 * i + 7 * t) % kOrig, rng.Uniform(0.5f, 1.5f)});
      }
    }
    batch_->links = CsrMatrix::FromTriplets(kBatch, kOrig, std::move(links));
    // Row 4 stores its own diagonal, so it gets no extra self-loop.
    batch_->inter = CsrMatrix::FromTriplets(
        kBatch, kBatch,
        {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 5, 0.5f}, {5, 1, 0.5f},
         {2, 3, 1.0f}, {3, 2, 1.0f}, {4, 4, 2.0f}});
    batch_->features = rng.NormalTensor(kBatch, kDim);
    batch_->labels.assign(static_cast<size_t>(kBatch), 0);
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete condensed_;
  }

  static CondensedGraph* condensed_;
  static HeldOutBatch* batch_;
};

CondensedGraph* WideMappingServingTest::condensed_ = nullptr;
HeldOutBatch* WideMappingServingTest::batch_ = nullptr;

TEST_F(WideMappingServingTest, ConversionAcrossBitmapWordsMatchesOracle) {
  // The fixture holds what it promises: every converted row covers all N'
  // columns, and row 0 stores an explicit 0.0f in each bitmap word.
  const CsrMatrix converted =
      CsrMatrix::Multiply(batch_->links, condensed_->mapping);
  for (int64_t i = 0; i < kBatch; ++i) ASSERT_EQ(converted.RowNnz(i), kSyn);
  const Tensor dense = converted.ToDense();
  for (const int64_t c : kZeroCols) ASSERT_EQ(dense.At(0, c), 0.0f);

  for (const GnnArch arch : kAllArchs) {
    Rng mrng(7);
    std::unique_ptr<GnnModel> model =
        MakeGnn(arch, kDim, kClasses, GnnConfig(), mrng);
    for (const bool graph_batch : {true, false}) {
      const Deployment dep =
          ComposeDeployment(*condensed_, *batch_, graph_batch);
      Rng oracle_rng(9);
      const Tensor expect =
          SliceRows(model->Predict(dep.operators, dep.features, oracle_rng),
                    dep.num_base, dep.num_base + dep.batch_size);
      ServingSession session(*condensed_, *model);
      // Twice through one session: the accumulator and the bitmap must be
      // clean again after every row.
      for (int rep = 0; rep < 2; ++rep) {
        Rng rng(9);
        ExpectBitEqual(expect, session.Serve(*batch_, graph_batch, rng));
        // A zero sum left out of the conversion need not move a logit bit,
        // but it does change the composed adjacency.
        EXPECT_EQ(session.composed_csr_bytes(), dep.adjacency.StorageBytes())
            << GnnArchName(arch);
      }
    }
  }
}

/// A base of six nodes with positive, symmetric weights: the rows of A sum
/// to 2.5, 4, 3, 1.5, 2.5 and 2.5, and those of Ã to one more, all exact.
Graph PositiveBase(Rng& rng) {
  std::vector<Triplet> t;
  for (const Triplet& e : {Triplet{0, 1, 1.0f}, Triplet{1, 2, 2.0f},
                           Triplet{2, 3, 1.0f}, Triplet{3, 4, 0.5f},
                           Triplet{4, 5, 1.0f}, Triplet{0, 5, 1.5f},
                           Triplet{1, 4, 1.0f}}) {
    t.push_back(e);
    t.push_back({e.col, e.row, e.value});
  }
  return Graph(CsrMatrix::FromTriplets(6, 6, std::move(t)),
               rng.NormalTensor(6, 4), {0, 1, 2, 0, 1, 2}, 3);
}

/// A three-node batch on PositiveBase that drives one composed row's degree
/// to exactly 0. `zero_link`: links of -3.5 to base node 0 and -3 to base
/// node 2 zero Ã row 0 and A row 2 (both batch modes). Otherwise batch row 0
/// has no links and one inter edge of -1, so its Ã row sums to 1 - 1 = 0
/// (graph batches).
HeldOutBatch ZeroingBatch(bool zero_link, Rng& rng) {
  HeldOutBatch b;
  b.features = rng.NormalTensor(3, 4);
  if (zero_link) {
    b.links = CsrMatrix::FromTriplets(
        3, 6, {{0, 0, -3.5f}, {1, 2, -3.0f}, {1, 3, 1.0f}, {2, 5, 1.0f}});
    b.inter = CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}});
  } else {
    b.links = CsrMatrix::FromTriplets(
        3, 6, {{1, 2, 1.0f}, {2, 4, 1.0f}, {2, 5, 0.5f}});
    b.inter = CsrMatrix::FromTriplets(
        3, 3, {{0, 1, -1.0f}, {1, 0, -1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
  }
  b.labels = {0, 1, 2};
  return b;
}

TEST(ZeroDegreeRequestTest, ServedIncrementallyAndExactly) {
  // A request that zeroes a composed row's degree on a positive base is
  // patched like any other: two serves per session equal the
  // ComposeDeployment oracle bit for bit, the second with no tensor-heap
  // allocation, for every architecture, batch mode, SIMD tier and pool
  // width, over the original graph and over an identity-mapped artifact.
  struct Restore {
    simd::Tier tier = simd::ActiveTier();
    ~Restore() {
      simd::SetTier(tier);
      ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
    }
  } restore;
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  Rng rng(5);
  CondensedGraph identity;
  identity.graph = PositiveBase(rng);
  identity.mapping = CsrMatrix::Identity(6);
  const Graph& base = identity.graph;
  for (const bool zero_link : {true, false}) {
    const HeldOutBatch batch = ZeroingBatch(zero_link, rng);
    for (const bool graph_batch : {true, false}) {
      // The batch reaches the corner it is built for.
      const CsrMatrix adj =
          ComposeDeployment(base, batch, graph_batch).adjacency;
      const std::vector<float> loops_deg = AddSelfLoops(adj).RowSums();
      if (zero_link) {
        EXPECT_EQ(loops_deg[0], 0.0f);
        EXPECT_EQ(adj.RowSums()[2], 0.0f);
      } else if (graph_batch) {
        EXPECT_EQ(loops_deg[6], 0.0f);
      }
    }
    for (const simd::Tier tier : tiers) {
      simd::SetTier(tier);
      for (const int width : {1, 4}) {
        ThreadPool::Global().SetNumThreads(width);
        for (const GnnArch arch : kAllArchs) {
          Rng mrng(7);
          std::unique_ptr<GnnModel> model =
              MakeGnn(arch, 4, 3, GnnConfig(), mrng);
          for (const bool graph_batch : {true, false}) {
            for (const bool on_identity : {false, true}) {
              SCOPED_TRACE(testing::Message()
                           << GnnArchName(arch) << (zero_link ? " link" :
                                                               " inter")
                           << (graph_batch ? " graph" : " node") << " batch, "
                           << simd::TierName(tier) << ", width " << width
                           << (on_identity ? ", identity-mapped" : ""));
              const Deployment dep =
                  on_identity ? ComposeDeployment(identity, batch, graph_batch)
                              : ComposeDeployment(base, batch, graph_batch);
              Rng orng(9);
              const Tensor expect = SliceRows(
                  model->Predict(dep.operators, dep.features, orng),
                  dep.num_base, dep.num_base + dep.batch_size);
              std::unique_ptr<ServingSession> session =
                  on_identity
                      ? std::make_unique<ServingSession>(identity, *model)
                      : std::make_unique<ServingSession>(base, *model);
              Rng srng(9);
              ExpectBitEqual(expect, session->Serve(batch, graph_batch, srng));
              const int64_t warm = internal::TensorHeapAllocCount();
              ExpectBitEqual(expect, session->Serve(batch, graph_batch, srng));
              EXPECT_EQ(internal::TensorHeapAllocCount(), warm);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mcond
