#include "coreset/coreset.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace mcond {
namespace {

Graph TestGraph(uint64_t seed = 41) {
  SbmConfig config;
  config.num_nodes = 150;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.avg_degree = 8.0;
  Rng rng(seed);
  return GenerateSbmGraph(config, rng);
}

Tensor Embeddings(const Graph& g) {
  return g.normalized_adjacency().SpMM(
      g.normalized_adjacency().SpMM(g.features()));
}

struct MethodCase {
  CoresetMethod method;
};

class CoresetMethodTest : public ::testing::TestWithParam<MethodCase> {};

TEST_P(CoresetMethodTest, SelectsRequestedCountOfDistinctLabeledNodes) {
  Graph g = TestGraph();
  Rng rng(1);
  const std::vector<int64_t> sel =
      SelectCoreset(GetParam().method, g, Embeddings(g), 15, rng);
  EXPECT_EQ(sel.size(), 15u);
  for (size_t i = 1; i < sel.size(); ++i) EXPECT_LT(sel[i - 1], sel[i]);
  for (int64_t i : sel) EXPECT_GE(g.labels()[static_cast<size_t>(i)], 0);
}

TEST_P(CoresetMethodTest, CoversEveryClass) {
  Graph g = TestGraph();
  Rng rng(2);
  const std::vector<int64_t> sel =
      SelectCoreset(GetParam().method, g, Embeddings(g), 9, rng);
  std::vector<bool> seen(3, false);
  for (int64_t i : sel) {
    seen[static_cast<size_t>(g.labels()[static_cast<size_t>(i)])] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CoresetMethodTest,
    ::testing::Values(MethodCase{CoresetMethod::kRandom},
                      MethodCase{CoresetMethod::kDegree},
                      MethodCase{CoresetMethod::kHerding},
                      MethodCase{CoresetMethod::kKCenter}),
    [](const ::testing::TestParamInfo<MethodCase>& info) {
      std::string name = CoresetMethodName(info.param.method);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(CoresetTest, DegreePicksHighestDegreeNodes) {
  Graph g = TestGraph();
  Rng rng(3);
  const std::vector<int64_t> sel =
      SelectCoreset(CoresetMethod::kDegree, g, Embeddings(g), 6, rng);
  // Every selected node's degree must be >= the median degree of its class.
  for (int64_t i : sel) {
    const int64_t y = g.labels()[static_cast<size_t>(i)];
    int64_t higher = 0, total = 0;
    for (int64_t j = 0; j < g.NumNodes(); ++j) {
      if (g.labels()[static_cast<size_t>(j)] != y) continue;
      ++total;
      if (g.adjacency().RowNnz(j) > g.adjacency().RowNnz(i)) ++higher;
    }
    EXPECT_LT(higher, total / 2 + 1);
  }
}

TEST(CoresetTest, BuildGraphHasIndicatorMapping) {
  Graph g = TestGraph();
  Rng rng(4);
  const std::vector<int64_t> sel =
      SelectCoreset(CoresetMethod::kRandom, g, Embeddings(g), 12, rng);
  CondensedGraph cg = BuildCoresetGraph(g, sel);
  EXPECT_EQ(cg.graph.NumNodes(), 12);
  EXPECT_EQ(cg.mapping.rows(), g.NumNodes());
  EXPECT_EQ(cg.mapping.cols(), 12);
  EXPECT_EQ(cg.mapping.Nnz(), 12);
  const Tensor mapping = cg.mapping.ToDense();
  for (size_t j = 0; j < sel.size(); ++j) {
    EXPECT_EQ(mapping.At(sel[j], static_cast<int64_t>(j)), 1.0f);
  }
}

TEST(CoresetTest, InducedEdgesMatchOriginal) {
  Graph g = TestGraph();
  Rng rng(5);
  const std::vector<int64_t> sel =
      SelectCoreset(CoresetMethod::kDegree, g, Embeddings(g), 20, rng);
  CondensedGraph cg = BuildCoresetGraph(g, sel);
  const Tensor induced = cg.graph.adjacency().ToDense();
  const Tensor original = g.adjacency().ToDense();
  for (size_t a = 0; a < sel.size(); ++a) {
    for (size_t b = 0; b < sel.size(); ++b) {
      EXPECT_EQ(induced.At(static_cast<int64_t>(a), static_cast<int64_t>(b)),
                original.At(sel[a], sel[b]));
    }
  }
}

TEST(CoresetTest, HerdingApproximatesClassMeanBetterThanWorstCase) {
  // The herded subset's mean should be closer to the class mean than a
  // single arbitrary point is, for the dominant class.
  Graph g = TestGraph();
  Rng rng(6);
  Tensor emb = Embeddings(g);
  const std::vector<int64_t> sel =
      SelectCoreset(CoresetMethod::kHerding, g, emb, 15, rng);
  // Compute class-0 mean over all nodes and over the selection.
  Tensor mean_all(1, emb.cols());
  int64_t n_all = 0;
  Tensor mean_sel(1, emb.cols());
  int64_t n_sel = 0;
  for (int64_t i = 0; i < g.NumNodes(); ++i) {
    if (g.labels()[static_cast<size_t>(i)] != 0) continue;
    for (int64_t j = 0; j < emb.cols(); ++j) {
      mean_all.At(0, j) += emb.At(i, j);
    }
    ++n_all;
  }
  for (int64_t i : sel) {
    if (g.labels()[static_cast<size_t>(i)] != 0) continue;
    for (int64_t j = 0; j < emb.cols(); ++j) {
      mean_sel.At(0, j) += emb.At(i, j);
    }
    ++n_sel;
  }
  ASSERT_GT(n_sel, 0);
  float dist = 0.0f;
  for (int64_t j = 0; j < emb.cols(); ++j) {
    const float d = mean_all.At(0, j) / n_all - mean_sel.At(0, j) / n_sel;
    dist += d * d;
  }
  // Herding converges at O(1/k); with k ≈ 5+ the gap should be small
  // relative to the embedding scale.
  float scale = 0.0f;
  for (int64_t j = 0; j < emb.cols(); ++j) {
    scale += (mean_all.At(0, j) / n_all) * (mean_all.At(0, j) / n_all);
  }
  EXPECT_LT(dist, scale);
}

TEST(CoresetTest, RequestingMoreThanClassSizeClamps) {
  SbmConfig config;
  config.num_nodes = 20;
  config.num_classes = 4;
  config.feature_dim = 4;
  Rng grng(7);
  Graph g = GenerateSbmGraph(config, grng);
  Rng rng(8);
  const std::vector<int64_t> sel =
      SelectCoreset(CoresetMethod::kKCenter, g, g.features(), 19, rng);
  EXPECT_LE(sel.size(), 19u);
  EXPECT_GE(sel.size(), 4u);
}

}  // namespace
}  // namespace mcond
