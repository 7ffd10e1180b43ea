#include "graph/graph.h"

#include <algorithm>
#include <unordered_map>

#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "obs/trace.h"

namespace mcond {

CsrMatrix AddSelfLoops(const CsrMatrix& a, float weight) {
  MCOND_CHECK_EQ(a.rows(), a.cols()) << "self-loops need a square matrix";
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<float> values;
  AddSelfLoopRows(a.View(), weight, &row_ptr, &col_idx, &values);
  return CsrMatrix::FromParts(a.rows(), a.cols(), std::move(row_ptr),
                              std::move(col_idx), std::move(values),
                              /*validate=*/false);
}

CsrView AddSelfLoopRows(const CsrView& a, float weight,
                        std::vector<int64_t>* row_ptr,
                        std::vector<int32_t>* col_idx,
                        std::vector<float>* values) {
  const int64_t n = a.NumRows();
  std::vector<int64_t>& rp = *row_ptr;
  rp.resize(static_cast<size_t>(n) + 1);
  rp[0] = 0;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t b = a.row_ptr[r];
    const int64_t e = a.row_ptr[r + 1];
    const bool has_diag = std::binary_search(
        a.col_idx + b, a.col_idx + e, static_cast<int32_t>(a.row_begin + r));
    rp[static_cast<size_t>(r) + 1] =
        rp[static_cast<size_t>(r)] + (e - b) + (has_diag ? 0 : 1);
  }
  col_idx->resize(static_cast<size_t>(rp[static_cast<size_t>(n)]));
  values->resize(col_idx->size());
  int32_t* ci = col_idx->data();
  float* v = values->data();
  ParallelFor(
      0, n, GrainFromCost(2 * (a.nnz / std::max<int64_t>(n, 1) + 1)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int32_t diag = static_cast<int32_t>(a.row_begin + r);
          int64_t out = rp[static_cast<size_t>(r)];
          bool placed = false;
          for (int64_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
            const int32_t c = a.col_idx[k];
            if (!placed && c >= diag) {
              if (c != diag) {
                ci[out] = diag;
                v[out++] = weight;
              }
              placed = true;
            }
            ci[out] = c;
            v[out++] = a.values[k];
          }
          if (!placed) {
            ci[out] = diag;
            v[out] = weight;
          }
        }
      },
      "graph.add_self_loops");
  return {a.index, a.row_begin, a.row_end, rp[static_cast<size_t>(n)],
          rp.data(), ci, v};
}

std::vector<float> InvSqrtDegrees(const std::vector<float>& deg) {
  std::vector<float> dinv_sqrt(deg.size());
  for (size_t i = 0; i < deg.size(); ++i) {
    dinv_sqrt[i] = InvSqrtDegree(deg[i]);
  }
  return dinv_sqrt;
}

void SymNormalizeValues(const CsrView& a, const float* dinv_sqrt, float* out) {
  const float* dinv_row = dinv_sqrt + a.row_begin;
  ParallelFor(
      0, a.NumRows(),
      GrainFromCost(2 * (a.nnz / std::max<int64_t>(a.NumRows(), 1) + 1)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float dr = dinv_row[r];
          for (int64_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
            out[k] = a.values[k] * dr * dinv_sqrt[a.col_idx[k]];
          }
        }
      },
      "graph.sym_normalize");
}

CsrMatrix SymNormalize(const CsrMatrix& a, bool add_self_loops) {
  MCOND_TRACE_SPAN("graph.sym_normalize");
  const CsrMatrix tilde = add_self_loops ? AddSelfLoops(a) : a;
  const std::vector<float> dinv_sqrt = InvSqrtDegrees(tilde.RowSums());
  // Normalization never changes the sparsity structure — only the values —
  // so rescale in place of a triplet rebuild (which re-sorts all nnz).
  std::vector<float> vals(static_cast<size_t>(tilde.Nnz()));
  SymNormalizeValues(tilde.View(), dinv_sqrt.data(), vals.data());
  return tilde.WithValues(std::move(vals));
}

CsrMatrix RowNormalize(const CsrMatrix& a) {
  MCOND_TRACE_SPAN("graph.row_normalize");
  const std::vector<float> deg = a.RowSums();
  const std::vector<int64_t>& rp = a.row_ptr();
  const std::vector<float>& v = a.values();
  std::vector<float> vals(static_cast<size_t>(a.Nnz()));
  ParallelFor(
      0, a.rows(),
      GrainFromCost(a.Nnz() / std::max<int64_t>(a.rows(), 1) + 1),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float inv = InvDegree(deg[static_cast<size_t>(r)]);
          const int64_t b = rp[static_cast<size_t>(r)];
          const int64_t e = rp[static_cast<size_t>(r) + 1];
          for (int64_t k = b; k < e; ++k) {
            vals[static_cast<size_t>(k)] = v[static_cast<size_t>(k)] * inv;
          }
        }
      },
      "graph.row_normalize");
  return a.WithValues(std::move(vals));
}

std::vector<int64_t> LabeledNodes(const std::vector<int64_t>& labels) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= 0) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

std::vector<int64_t> ClassCounts(const std::vector<int64_t>& labels,
                                 int64_t num_classes) {
  std::vector<int64_t> counts(static_cast<size_t>(num_classes), 0);
  for (int64_t y : labels) {
    if (y >= 0) ++counts[static_cast<size_t>(y)];
  }
  return counts;
}

Graph::Graph(CsrMatrix adjacency, Tensor features,
             std::vector<int64_t> labels, int64_t num_classes)
    : adjacency_(std::move(adjacency)),
      features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  MCOND_CHECK_EQ(adjacency_.rows(), adjacency_.cols());
  MCOND_CHECK_EQ(adjacency_.rows(), features_.rows());
  MCOND_CHECK_EQ(adjacency_.rows(), static_cast<int64_t>(labels_.size()));
  for (int64_t y : labels_) {
    MCOND_CHECK(y >= -1 && y < num_classes_) << "label " << y;
  }
  normalized_ = SymNormalize(adjacency_);
}

int64_t Graph::StorageBytes() const {
  return adjacency_.StorageBytes() +
         features_.size() * static_cast<int64_t>(sizeof(float));
}

Graph InducedSubgraph(const Graph& g, const std::vector<int64_t>& nodes) {
  std::unordered_map<int64_t, int64_t> remap;
  remap.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const bool inserted =
        remap.emplace(nodes[i], static_cast<int64_t>(i)).second;
    MCOND_CHECK(inserted) << "duplicate node " << nodes[i];
  }
  const CsrMatrix& a = g.adjacency();
  std::vector<Triplet> t;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int64_t r = nodes[i];
    for (int64_t k = a.row_ptr()[static_cast<size_t>(r)];
         k < a.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t c = a.col_idx()[static_cast<size_t>(k)];
      const auto it = remap.find(c);
      if (it != remap.end()) {
        t.push_back({static_cast<int64_t>(i), it->second,
                     a.values()[static_cast<size_t>(k)]});
      }
    }
  }
  const int64_t n = static_cast<int64_t>(nodes.size());
  CsrMatrix sub_adj = CsrMatrix::FromTriplets(n, n, std::move(t));
  Tensor sub_x = GatherRows(g.features(), nodes);
  std::vector<int64_t> sub_y(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    sub_y[i] = g.labels()[static_cast<size_t>(nodes[i])];
  }
  return Graph(std::move(sub_adj), std::move(sub_x), std::move(sub_y),
               g.num_classes());
}

}  // namespace mcond
