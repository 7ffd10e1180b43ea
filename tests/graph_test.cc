#include "graph/graph.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/tensor_ops.h"

namespace mcond {
namespace {

CsrMatrix PathGraph3() {
  // 0-1-2 path, undirected.
  return CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
}

TEST(GraphOpsTest, AddSelfLoops) {
  CsrMatrix with = AddSelfLoops(PathGraph3());
  EXPECT_EQ(with.Nnz(), 7);
  EXPECT_EQ(with.ToDense().At(0, 0), 1.0f);
  EXPECT_EQ(with.ToDense().At(1, 1), 1.0f);
}

TEST(GraphOpsTest, AddSelfLoopsIdempotentOnExistingDiagonal) {
  CsrMatrix a = CsrMatrix::FromTriplets(2, 2, {{0, 0, 5.0f}});
  CsrMatrix with = AddSelfLoops(a);
  EXPECT_EQ(with.ToDense().At(0, 0), 5.0f);  // Existing diagonal untouched.
  EXPECT_EQ(with.ToDense().At(1, 1), 1.0f);
}

TEST(GraphOpsTest, SymNormalizeValues) {
  // Path graph with self-loops: degrees are 2, 3, 2.
  CsrMatrix norm = SymNormalize(PathGraph3());
  EXPECT_NEAR(norm.ToDense().At(0, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(norm.ToDense().At(0, 1), 1.0f / std::sqrt(6.0f), 1e-5f);
  EXPECT_NEAR(norm.ToDense().At(1, 1), 1.0f / 3.0f, 1e-5f);
}

// SymNormalizeValues is one plain loop on every CPU: each stored value
// becomes exactly (v · dinv[r]) · dinv[col], also on a row-range view that
// starts past row 0, and the entries of other rows are left alone.
TEST(GraphOpsTest, SymNormalizeValuesMatchesPlainLoopBitForBit) {
  Rng rng(41);
  constexpr int64_t kN = 30;
  std::vector<Triplet> t;
  for (int64_t r = 0; r < kN; ++r) {
    for (const int64_t c : rng.SampleWithoutReplacement(kN, 11)) {
      t.push_back({r, c, rng.Normal()});
    }
  }
  const CsrMatrix a = CsrMatrix::FromTriplets(kN, kN, std::move(t));
  std::vector<float> dinv(kN);
  for (float& f : dinv) f = rng.Uniform(0.05f, 2.0f);
  std::vector<float> out(static_cast<size_t>(a.Nnz()), std::nanf(""));
  SymNormalizeValues(a.View().Rows(7, 26), dinv.data(), out.data());
  for (int64_t r = 0; r < kN; ++r) {
    for (int64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const size_t kk = static_cast<size_t>(k);
      if (r < 7 || r >= 26) {
        EXPECT_TRUE(std::isnan(out[kk])) << "row " << r << " written";
        continue;
      }
      const float v = a.values()[kk] * dinv[static_cast<size_t>(r)];
      const float want = v * dinv[static_cast<size_t>(a.col_idx()[kk])];
      EXPECT_EQ(0, std::memcmp(&out[kk], &want, sizeof(float)))
          << "row " << r << " entry " << k << ": " << out[kk] << " vs "
          << want;
    }
  }
}

TEST(GraphOpsTest, SymNormalizeIsSymmetric) {
  CsrMatrix norm = SymNormalize(PathGraph3());
  Tensor d = norm.ToDense();
  EXPECT_TRUE(AllClose(d, Transpose(d)));
}

TEST(GraphOpsTest, SymNormalizeEntryFormula) {
  // Every stored entry must equal Ã_ij / sqrt(d_i d_j).
  CsrMatrix a = AddSelfLoops(PathGraph3());
  const std::vector<float> deg = a.RowSums();
  const Tensor norm = SymNormalize(PathGraph3()).ToDense();
  const Tensor dense = a.ToDense();
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      const float expect =
          dense.At(i, j) / std::sqrt(deg[static_cast<size_t>(i)] *
                                     deg[static_cast<size_t>(j)]);
      EXPECT_NEAR(norm.At(i, j), expect, 1e-6f);
    }
  }
}

TEST(GraphOpsTest, SymNormalizeSpectralRadiusAtMostOne) {
  // Power iteration on the GCN kernel must not diverge: ||Â^k x|| stays
  // bounded by ||x|| for the dominant mode.
  CsrMatrix norm = SymNormalize(PathGraph3());
  Tensor x = Tensor::Ones(3, 1);
  Tensor y = x;
  for (int i = 0; i < 50; ++i) y = norm.SpMM(y);
  EXPECT_LE(FrobeniusNorm(y), FrobeniusNorm(x) + 1e-4f);
}

TEST(GraphOpsTest, SymNormalizeZeroDegreeRowStaysZero) {
  CsrMatrix a = CsrMatrix::FromTriplets(2, 2, {});
  CsrMatrix norm = SymNormalize(a, /*add_self_loops=*/false);
  EXPECT_EQ(norm.Nnz(), 0);
}

TEST(GraphOpsTest, RowNormalizeRowsSumToOne) {
  CsrMatrix norm = RowNormalize(AddSelfLoops(PathGraph3()));
  for (float s : norm.RowSums()) EXPECT_NEAR(s, 1.0f, 1e-5f);
}

TEST(GraphTest, ConstructorValidatesShapes) {
  EXPECT_DEATH(Graph(PathGraph3(), Tensor(2, 4), {0, 1, 2}, 3), "check");
  EXPECT_DEATH(Graph(PathGraph3(), Tensor(3, 4), {0, 1}, 3), "check");
  EXPECT_DEATH(Graph(PathGraph3(), Tensor(3, 4), {0, 1, 7}, 3), "label");
}

TEST(GraphTest, BasicAccessors) {
  Graph g(PathGraph3(), Tensor::Ones(3, 4), {0, 1, -1}, 2);
  EXPECT_EQ(g.NumNodes(), 3);
  EXPECT_EQ(g.NumEdges(), 4);
  EXPECT_EQ(g.FeatureDim(), 4);
  EXPECT_EQ(g.num_classes(), 2);
  EXPECT_EQ(g.LabeledNodes(), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(g.ClassCounts(), (std::vector<int64_t>{1, 1}));
}

TEST(GraphTest, StorageBytes) {
  Graph g(PathGraph3(), Tensor::Ones(3, 4), {0, 1, 0}, 2);
  EXPECT_EQ(g.StorageBytes(),
            g.adjacency().StorageBytes() + 3 * 4 * 4);
}

TEST(GraphTest, InducedSubgraphKeepsInternalEdges) {
  Graph g(PathGraph3(), Tensor::FromVector(3, 1, {10, 20, 30}), {0, 1, 0},
          2);
  Graph sub = InducedSubgraph(g, {1, 2});
  EXPECT_EQ(sub.NumNodes(), 2);
  EXPECT_EQ(sub.NumEdges(), 2);  // The 1-2 edge, both directions.
  EXPECT_EQ(sub.features().At(0, 0), 20.0f);
  EXPECT_EQ(sub.labels()[1], 0);
  EXPECT_EQ(sub.adjacency().ToDense().At(0, 1), 1.0f);
}

TEST(GraphTest, InducedSubgraphDropsCrossEdges) {
  Graph g(PathGraph3(), Tensor(3, 1), {0, 0, 0}, 1);
  Graph sub = InducedSubgraph(g, {0, 2});  // 0 and 2 are not adjacent.
  EXPECT_EQ(sub.NumEdges(), 0);
}

TEST(GraphTest, InducedSubgraphDuplicateNodeDies) {
  Graph g(PathGraph3(), Tensor(3, 1), {0, 0, 0}, 1);
  EXPECT_DEATH(InducedSubgraph(g, {0, 0}), "duplicate");
}

}  // namespace
}  // namespace mcond
