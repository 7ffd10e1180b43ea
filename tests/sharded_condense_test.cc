// Bit-identity gates for the out-of-core path: every streamed kernel, and
// one full condense round, must match the resident implementation exactly
// on a graph forced through multiple segments under a tiny memory budget.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "condense/mcond.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "graph/compose.h"
#include "graph/inductive.h"
#include "graph/sampling.h"
#include "graph/sharded_ops.h"
#include "scratch_path.h"

namespace mcond {
namespace {

struct ShardedFixture {
  Graph graph;
  ShardedGraph sharded;
  std::string dir;

  explicit ShardedFixture(const std::string& name, int64_t n = 96,
                          int64_t mem_budget_bytes = 4096,
                          int64_t feature_dim = 16) {
    SbmConfig config;
    config.num_nodes = n;
    config.num_classes = 3;
    config.feature_dim = feature_dim;
    config.avg_degree = 6.0;
    Rng rng(5);
    graph = GenerateSbmGraph(config, rng);
    dir = ScratchPath(name);
    ShardOptions options;
    options.max_rows_per_segment = n / 4;  // Force >= 4 segments.
    StatusOr<ShardedGraph> s =
        ShardGraph(graph, dir, options, mem_budget_bytes);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    sharded = std::move(s).value();
  }

  ~ShardedFixture() {
    sharded = ShardedGraph();  // Close stores before removing files.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// Every SIMD tier this host runs. The streamed passes must match the
/// resident kernels on each, the AVX2 SpMM kernel's tail lanes included.
std::vector<simd::Tier> HostTiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma()) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  return tiers;
}

struct RestoreTier {
  simd::Tier saved = simd::ActiveTier();
  ~RestoreTier() { simd::SetTier(saved); }
};

void ExpectTensorsBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0);
}

void ExpectCsrBitIdentical(const ShardedCsr& sharded, const CsrMatrix& m) {
  ASSERT_EQ(sharded.rows(), m.rows());
  ASSERT_EQ(sharded.cols(), m.cols());
  ASSERT_EQ(sharded.Nnz(), m.Nnz());
  ASSERT_EQ(sharded.row_ptr(), m.row_ptr());
  for (int64_t s = 0; s < sharded.NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = sharded.Pin(s);
    ASSERT_TRUE(pin.ok());
    const CsrView& view = pin.value().view();
    const int64_t base = m.row_ptr()[static_cast<size_t>(view.row_begin)];
    ASSERT_EQ(std::memcmp(view.col_idx, m.col_idx().data() + base,
                          static_cast<size_t>(view.nnz) * sizeof(int32_t)),
              0);
    ASSERT_EQ(std::memcmp(view.values, m.values().data() + base,
                          static_cast<size_t>(view.nnz) * sizeof(float)),
              0);
  }
}

TEST(ShardedOpsTest, SpmmBitIdenticalToResident) {
  RestoreTier restore_tier;
  for (const simd::Tier tier : HostTiers()) {
    simd::SetTier(tier);
    for (const int64_t d : {16, 13}) {
      SCOPED_TRACE(std::string(simd::TierName(tier)) + " d=" +
                   std::to_string(d));
      ShardedFixture f("sharded_ops_spmm", 96, 4096, d);
      ASSERT_GE(f.sharded.normalized->NumSegments(), 4);
      StatusOr<Tensor> streamed =
          ShardedPropagate(*f.sharded.normalized, f.graph.features(), 1);
      ASSERT_TRUE(streamed.ok());
      ExpectTensorsBitIdentical(
          streamed.value(),
          f.graph.normalized_adjacency().SpMM(f.graph.features()));
    }
  }
}

TEST(ShardedOpsTest, SymNormalizeBitIdenticalToResident) {
  ShardedFixture f("sharded_ops_norm");
  // ShardGraph already streamed normalized.mcss; compare against graph.h.
  ExpectCsrBitIdentical(*f.sharded.normalized,
                        f.graph.normalized_adjacency());
}

TEST(ShardedOpsTest, SymNormalizeExplicitDiagonalsBitIdenticalToResident) {
  // The SBM generator never emits self-loops, so this hand-built matrix
  // covers the merge branches the fixtures miss: rows that already store
  // their diagonal (first, middle, last, and as the only entry), an empty
  // row, and rows whose columns all lie below or all above the diagonal.
  const std::vector<Triplet> triplets = {
      {0, 0, 2.0f}, {0, 3, 1.0f},                 // diagonal first
      {1, 1, 0.5f},                               // diagonal only
                                                  // row 2 empty
      {3, 0, 1.0f}, {3, 1, 1.5f},                 // all columns < r
      {4, 5, 1.0f}, {4, 6, 0.25f},                // all columns > r
      {5, 2, 1.0f}, {5, 5, 3.0f}, {5, 6, 1.0f},   // diagonal in the middle
      {6, 0, 0.5f}, {6, 4, 2.0f}, {6, 6, 1.0f}};  // diagonal last
  const CsrMatrix m = CsrMatrix::FromTriplets(7, 7, triplets);
  // Rows 2, 3 and 4 gain a loop; the others keep their own diagonal.
  EXPECT_EQ(AddSelfLoops(m).Nnz(), m.Nnz() + 3);
  EXPECT_EQ(AddSelfLoops(m).ToDense().At(1, 1), 0.5f);

  const std::string dir = ScratchPath("sharded_ops_norm_diag");
  std::filesystem::create_directories(dir);
  ShardOptions options;
  options.max_rows_per_segment = 2;
  ASSERT_TRUE(ShardedCsr::Write(m, dir + "/a.mcss", options).ok());
  RestoreTier restore_tier;
  for (const simd::Tier tier : HostTiers()) {
    simd::SetTier(tier);
    SCOPED_TRACE(simd::TierName(tier));
    StatusOr<ShardedCsr> a = ShardedCsr::Open(dir + "/a.mcss", 4096);
    ASSERT_TRUE(a.ok());
    ASSERT_GE(a.value().NumSegments(), 3);
    StatusOr<ShardedCsr> streamed =
        ShardedSymNormalize(a.value(), dir + "/norm.mcss", options, 4096);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ExpectCsrBitIdentical(streamed.value(), SymNormalize(m));
  }  // Each pass closes its stores before the files are removed.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ShardedOpsTest, PropagateWithKeepMatchesGatherBitExact) {
  RestoreTier restore_tier;
  for (const simd::Tier tier : HostTiers()) {
    simd::SetTier(tier);
    for (const int64_t d : {16, 13}) {
      SCOPED_TRACE(std::string(simd::TierName(tier)) + " d=" +
                   std::to_string(d));
      ShardedFixture f("sharded_ops_prop", 96, 4096, d);
      const std::vector<int64_t> keep = {3, 17, 41, 90, 95};
      StatusOr<Tensor> streamed =
          ShardedPropagate(*f.sharded.normalized, f.graph.features(), 2, keep);
      ASSERT_TRUE(streamed.ok());
      Tensor full = f.graph.features();
      for (int i = 0; i < 2; ++i) {
        full = f.graph.normalized_adjacency().SpMM(full);
      }
      ExpectTensorsBitIdentical(streamed.value(), GatherRows(full, keep));
    }
  }
}

TEST(ShardedOpsTest, PropagateRejectsOutOfRangeKeepAtEveryDepth) {
  ShardedFixture f("sharded_ops_prop_range");
  const int64_t n = f.graph.NumNodes();
  for (const int64_t bad : {n, n + 7, int64_t{-1}}) {
    for (const int64_t depth : {0, 2}) {
      SCOPED_TRACE("keep row " + std::to_string(bad) + " depth " +
                   std::to_string(depth));
      StatusOr<Tensor> z = ShardedPropagate(
          *f.sharded.normalized, f.graph.features(), depth, {3, bad});
      ASSERT_FALSE(z.ok());
      EXPECT_EQ(z.status().code(), StatusCode::kOutOfRange);
    }
  }
}

TEST(ShardedOpsTest, ComposeBitIdenticalToResident) {
  RestoreTier restore_tier;
  for (const simd::Tier tier : HostTiers()) {
    simd::SetTier(tier);
    SCOPED_TRACE(simd::TierName(tier));
    ShardedFixture f("sharded_ops_compose", 96, 4096, 13);
    Rng rng(9);
    InductiveDataset split = MakeInductiveSplit(f.graph, 0.2, 0.2, rng);
    // Compose the *train* graph with its val batch, resident and streamed.
    const std::string train_dir = ScratchPath("sharded_ops_compose_train");
    ShardOptions options;
    options.max_rows_per_segment =
        std::max<int64_t>(1, split.train_graph.NumNodes() / 4);
    StatusOr<ShardedGraph> train =
        ShardGraph(split.train_graph, train_dir, options, 4096);
    ASSERT_TRUE(train.ok());
    const CsrMatrix resident = ComposeBlockAdjacency(
        split.train_graph.adjacency(), split.val.links, split.val.inter);
    StatusOr<ShardedCsr> streamed = ShardedComposeBlockAdjacency(
        *train.value().adjacency, split.val.links, split.val.inter,
        train_dir + "/composed.mcss", options, 4096);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ExpectCsrBitIdentical(streamed.value(), resident);
    streamed = ShardedCsr{};
    train = ShardedGraph{};  // Close the train stores before removing files.
    std::error_code ec;
    std::filesystem::remove_all(train_dir, ec);
  }
}

TEST(ShardedOpsTest, EdgeSamplingReplaysResidentRngExactly) {
  RestoreTier restore_tier;
  for (const simd::Tier tier : HostTiers()) {
    simd::SetTier(tier);
    SCOPED_TRACE(simd::TierName(tier));
    ShardedFixture f("sharded_ops_sample", 96, 4096, 13);
    Rng resident_rng(123), sharded_rng(123);
    const EdgeBatch expect =
        SampleEdgeBatch(f.graph.adjacency(), 32, 32, resident_rng);
    StatusOr<EdgeBatch> got =
        ShardedSampleEdgeBatch(*f.sharded.adjacency, 32, 32, sharded_rng);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().src, expect.src);
    EXPECT_EQ(got.value().dst, expect.dst);
    EXPECT_EQ(got.value().target, expect.target);
  }
}

TEST(ShardedCondenseTest, FullCondenseRoundBitIdenticalToResident) {
  SbmConfig config;
  config.num_nodes = 140;
  config.num_classes = 3;
  config.feature_dim = 12;
  config.avg_degree = 6.0;
  Rng rng(21);
  const Graph full = GenerateSbmGraph(config, rng);
  InductiveDataset split = MakeInductiveSplit(full, 0.15, 0.15, rng);

  const std::string dir = ScratchPath("sharded_condense_round");
  ShardOptions options;
  options.max_rows_per_segment =
      std::max<int64_t>(1, split.train_graph.NumNodes() / 4);
  StatusOr<ShardedGraph> sharded =
      ShardGraph(split.train_graph, dir, options, /*mem_budget_bytes=*/4096);
  ASSERT_TRUE(sharded.ok());
  ASSERT_GE(sharded.value().adjacency->NumSegments(), 4);

  MCondConfig mc;
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 2;
  mc.m_steps_per_round = 2;
  mc.relay_refinement_steps = 2;
  mc.edge_batch = 16;

  const MCondResult resident =
      RunMCond(split.train_graph, split.val, 9, mc, 77);
  const MCondResult streamed =
      RunMCondSharded(sharded.value(), split.val, 9, mc, 77);

  ExpectTensorsBitIdentical(streamed.synthetic_features,
                            resident.synthetic_features);
  ExpectTensorsBitIdentical(streamed.dense_adjacency,
                            resident.dense_adjacency);
  ExpectTensorsBitIdentical(streamed.dense_mapping, resident.dense_mapping);
  EXPECT_EQ(streamed.synthetic_labels, resident.synthetic_labels);
  EXPECT_EQ(streamed.s_loss_history, resident.s_loss_history);
  EXPECT_EQ(streamed.m_loss_history, resident.m_loss_history);

  sharded = ShardedGraph{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ShardedCondenseTest, GcondModeSkipsMappingState) {
  // learn_mapping=false (GCond mode, the XL configuration) must produce an
  // empty mapping and still bit-match resident.
  SbmConfig config;
  config.num_nodes = 96;
  config.num_classes = 3;
  config.feature_dim = 12;
  config.avg_degree = 6.0;
  Rng rng(33);
  const Graph full = GenerateSbmGraph(config, rng);
  InductiveDataset split = MakeInductiveSplit(full, 0.15, 0.15, rng);

  const std::string dir = ScratchPath("sharded_condense_gcond");
  ShardOptions options;
  options.max_rows_per_segment =
      std::max<int64_t>(1, split.train_graph.NumNodes() / 4);
  StatusOr<ShardedGraph> sharded = ShardGraph(split.train_graph, dir,
                                              options, 4096);
  ASSERT_TRUE(sharded.ok());

  MCondConfig mc;
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 2;
  mc.learn_mapping = false;

  const MCondResult resident =
      RunMCond(split.train_graph, split.val, 6, mc, 13);
  const MCondResult streamed =
      RunMCondSharded(sharded.value(), split.val, 6, mc, 13);
  ExpectTensorsBitIdentical(streamed.synthetic_features,
                            resident.synthetic_features);
  ExpectTensorsBitIdentical(streamed.dense_adjacency,
                            resident.dense_adjacency);
  EXPECT_EQ(resident.dense_mapping.rows(), 0);
  EXPECT_EQ(streamed.dense_mapping.rows(), 0);

  sharded = ShardedGraph{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ShardedGeneratorTest, ShardedSbmProducesValidSymmetricStore) {
  SbmConfig config;
  config.num_nodes = 300;
  config.num_classes = 4;
  config.feature_dim = 8;
  config.avg_degree = 6.0;
  Rng rng(41);
  const std::string dir = ScratchPath("sharded_sbm_gen");
  ShardOptions options;
  options.max_rows_per_segment = 64;
  StatusOr<ShardedGraph> g =
      GenerateSbmGraphSharded(config, rng, dir, options, 4096);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumNodes(), 300);
  EXPECT_EQ(g.value().features.rows(), 300);
  EXPECT_EQ(g.value().features.cols(), 8);
  EXPECT_EQ(static_cast<int64_t>(g.value().labels.size()), 300);
  EXPECT_GE(g.value().adjacency->NumSegments(), 4);
  EXPECT_GT(g.value().adjacency->Nnz(), 0);
  // Realized density is close to (and never above) the target.
  EXPECT_LE(g.value().adjacency->Nnz(),
            2 * static_cast<int64_t>(config.avg_degree * 300 / 2));
  EXPECT_GT(g.value().adjacency->Nnz(),
            static_cast<int64_t>(config.avg_degree * 300 / 2));

  // Symmetry and no self-loops: check via a resident reconstruction.
  std::vector<Triplet> triplets;
  for (int64_t s = 0; s < g.value().adjacency->NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = g.value().adjacency->Pin(s);
    ASSERT_TRUE(pin.ok());
    const CsrView& view = pin.value().view();
    for (int64_t r = view.row_begin; r < view.row_end; ++r) {
      for (int64_t k = view.row_ptr[r - view.row_begin];
           k < view.row_ptr[r - view.row_begin + 1]; ++k) {
        triplets.push_back({r, view.col_idx[k], view.values[k]});
      }
    }
  }
  const CsrMatrix a = CsrMatrix::FromTriplets(300, 300, triplets);
  for (int64_t r = 0; r < a.rows(); ++r) {
    EXPECT_FALSE(a.HasEntry(r, r));
    for (int64_t k = a.row_ptr()[static_cast<size_t>(r)];
         k < a.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      EXPECT_TRUE(
          a.HasEntry(a.col_idx()[static_cast<size_t>(k)], r));
    }
  }
  // Every class is populated (the generator's per-class guarantee).
  std::vector<int64_t> counts =
      ClassCounts(g.value().labels, g.value().num_classes);
  for (int64_t k = 0; k < config.num_classes; ++k) {
    EXPECT_GT(counts[static_cast<size_t>(k)], 0);
  }

  g = ShardedGraph{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace mcond
