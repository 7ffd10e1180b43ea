#include "vng/vng.h"

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace mcond {
namespace {

Graph TestGraph(uint64_t seed = 51) {
  SbmConfig config;
  config.num_nodes = 120;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.avg_degree = 8.0;
  Rng rng(seed);
  return GenerateSbmGraph(config, rng);
}

TEST(VngTest, ProducesRequestedSize) {
  Graph g = TestGraph();
  Rng rng(1);
  CondensedGraph cg = RunVng(g, 9, VngConfig{}, rng);
  EXPECT_EQ(cg.graph.NumNodes(), 9);
  EXPECT_EQ(cg.mapping.rows(), g.NumNodes());
  EXPECT_EQ(cg.mapping.cols(), 9);
}

TEST(VngTest, MappingIsOneToOne) {
  // Every original node maps to exactly one virtual node with weight 1 —
  // the "implicit one-to-one mapping" the paper contrasts MCond against.
  Graph g = TestGraph();
  Rng rng(2);
  CondensedGraph cg = RunVng(g, 9, VngConfig{}, rng);
  EXPECT_EQ(cg.mapping.Nnz(), g.NumNodes());
  for (int64_t i = 0; i < g.NumNodes(); ++i) {
    EXPECT_EQ(cg.mapping.RowNnz(i), 1);
  }
  for (float v : cg.mapping.values()) EXPECT_EQ(v, 1.0f);
}

TEST(VngTest, VirtualLabelsAreMajorityOfMembers) {
  Graph g = TestGraph();
  Rng rng(3);
  CondensedGraph cg = RunVng(g, 9, VngConfig{}, rng);
  // Each virtual node's label must be the plurality label of its members
  // (clustering itself is label-free).
  const Tensor mapping = cg.mapping.ToDense();
  for (int64_t v = 0; v < cg.graph.NumNodes(); ++v) {
    std::vector<int64_t> votes(static_cast<size_t>(g.num_classes()), 0);
    for (int64_t i = 0; i < g.NumNodes(); ++i) {
      if (mapping.At(i, v) > 0.0f) {
        ++votes[static_cast<size_t>(g.labels()[static_cast<size_t>(i)])];
      }
    }
    const int64_t label = cg.graph.labels()[static_cast<size_t>(v)];
    ASSERT_GE(label, 0);
    for (int64_t k = 0; k < g.num_classes(); ++k) {
      EXPECT_LE(votes[static_cast<size_t>(k)],
                votes[static_cast<size_t>(label)]);
    }
  }
}

TEST(VngTest, VirtualAdjacencyDenserThanCoresetStyleGraphs) {
  // VNG aggregates all original edges, so its virtual graph is near-dense —
  // the property behind its higher inference cost in Fig. 3/4.
  Graph g = TestGraph();
  Rng rng(4);
  CondensedGraph cg = RunVng(g, 9, VngConfig{}, rng);
  const double density =
      static_cast<double>(cg.graph.NumEdges()) / (9.0 * 9.0);
  EXPECT_GT(density, 0.3);
}

TEST(VngTest, FeaturesAreWithinMemberRange) {
  Graph g = TestGraph();
  Rng rng(5);
  VngConfig config;
  config.degree_weighted = false;
  CondensedGraph cg = RunVng(g, 9, config, rng);
  // Unweighted centroids must lie inside the min/max box of member features.
  const Tensor mapping = cg.mapping.ToDense();
  for (int64_t v = 0; v < cg.graph.NumNodes(); ++v) {
    for (int64_t j = 0; j < g.FeatureDim(); ++j) {
      float lo = 1e30f, hi = -1e30f;
      bool any = false;
      for (int64_t i = 0; i < g.NumNodes(); ++i) {
        if (mapping.At(i, v) > 0.0f) {
          any = true;
          lo = std::min(lo, g.features().At(i, j));
          hi = std::max(hi, g.features().At(i, j));
        }
      }
      ASSERT_TRUE(any);
      EXPECT_GE(cg.graph.features().At(v, j), lo - 1e-4f);
      EXPECT_LE(cg.graph.features().At(v, j), hi + 1e-4f);
    }
  }
}

TEST(VngTest, DeterministicInRngSeed) {
  Graph g = TestGraph();
  Rng a(6), b(6);
  CondensedGraph ca = RunVng(g, 9, VngConfig{}, a);
  CondensedGraph cb = RunVng(g, 9, VngConfig{}, b);
  EXPECT_EQ(ca.graph.NumEdges(), cb.graph.NumEdges());
  EXPECT_EQ(ca.mapping.col_idx(), cb.mapping.col_idx());
}

}  // namespace
}  // namespace mcond
