// Property tests over randomly generated graphs at several SBM
// configurations: invariants of normalization, composition, and the
// inductive split that must hold regardless of graph shape.
#include <gtest/gtest.h>

#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "graph/compose.h"
#include "graph/inductive.h"

namespace mcond {
namespace {

struct GraphCase {
  int64_t nodes;
  int64_t classes;
  double avg_degree;
  double homophily;
};

class GraphPropertyTest : public ::testing::TestWithParam<GraphCase> {
 protected:
  Graph MakeGraph(uint64_t seed) const {
    SbmConfig config;
    config.num_nodes = GetParam().nodes;
    config.num_classes = GetParam().classes;
    config.feature_dim = 8;
    config.avg_degree = GetParam().avg_degree;
    config.homophily = GetParam().homophily;
    Rng rng(seed);
    return GenerateSbmGraph(config, rng);
  }
};

TEST_P(GraphPropertyTest, NormalizedAdjacencyIsSymmetric) {
  Graph g = MakeGraph(1);
  const CsrMatrix& norm = g.normalized_adjacency();
  const Tensor dense = norm.ToDense();
  for (int64_t i = 0; i < norm.rows(); ++i) {
    for (int64_t k = norm.row_ptr()[static_cast<size_t>(i)];
         k < norm.row_ptr()[static_cast<size_t>(i) + 1]; ++k) {
      const int64_t j = norm.col_idx()[static_cast<size_t>(k)];
      EXPECT_NEAR(norm.values()[static_cast<size_t>(k)], dense.At(j, i),
                  1e-6f);
    }
  }
}

TEST_P(GraphPropertyTest, PropagationContracts) {
  // Repeated application of the GCN kernel never blows up (spectral radius
  // <= 1 for any graph).
  Graph g = MakeGraph(2);
  Rng rng(2);
  Tensor x = rng.NormalTensor(g.NumNodes(), 4);
  Tensor h = x;
  for (int i = 0; i < 20; ++i) h = g.normalized_adjacency().SpMM(h);
  EXPECT_TRUE(h.AllFinite());
  EXPECT_LE(FrobeniusNorm(h), FrobeniusNorm(x) * 1.01f);
}

TEST_P(GraphPropertyTest, RowNormalizedIsStochastic) {
  Graph g = MakeGraph(3);
  for (float s : RowNormalize(AddSelfLoops(g.adjacency())).RowSums()) {
    EXPECT_NEAR(s, 1.0f, 1e-5f);  // Self-loops make every row non-empty.
  }
}

TEST_P(GraphPropertyTest, SplitCoversAllNodes) {
  Graph g = MakeGraph(4);
  Rng rng(4);
  InductiveDataset ds = MakeInductiveSplit(g, 0.15, 0.15, rng);
  EXPECT_EQ(ds.train_graph.NumNodes() + ds.val.size() + ds.test.size(),
            g.NumNodes());
}

TEST_P(GraphPropertyTest, ComposedGraphDegreesAreConsistent) {
  // Composing a batch must add exactly the link and inter degrees.
  Graph g = MakeGraph(5);
  Rng rng(5);
  InductiveDataset ds = MakeInductiveSplit(g, 0.1, 0.2, rng);
  const CsrMatrix composed = ComposeBlockAdjacency(
      ds.train_graph.adjacency(), ds.test.links, ds.test.inter);
  EXPECT_EQ(composed.Nnz(), ds.train_graph.NumEdges() +
                                2 * ds.test.links.Nnz() +
                                ds.test.inter.Nnz());
}

TEST_P(GraphPropertyTest, InducedSubgraphOfAllNodesIsIdentity) {
  Graph g = MakeGraph(6);
  std::vector<int64_t> all(static_cast<size_t>(g.NumNodes()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
  Graph sub = InducedSubgraph(g, all);
  EXPECT_EQ(sub.NumEdges(), g.NumEdges());
  EXPECT_TRUE(AllClose(sub.features(), g.features()));
  EXPECT_EQ(sub.labels(), g.labels());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GraphPropertyTest,
    ::testing::Values(GraphCase{60, 2, 4.0, 0.9},
                      GraphCase{150, 3, 8.0, 0.5},
                      GraphCase{200, 6, 12.0, 0.2},
                      GraphCase{100, 10, 6.0, 0.7},
                      GraphCase{40, 2, 20.0, 0.5}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return "n" + std::to_string(info.param.nodes) + "c" +
             std::to_string(info.param.classes) + "d" +
             std::to_string(static_cast<int>(info.param.avg_degree)) + "h" +
             std::to_string(static_cast<int>(info.param.homophily * 100));
    });

}  // namespace
}  // namespace mcond
