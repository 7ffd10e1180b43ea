#ifndef MCOND_GRAPH_GRAPH_H_
#define MCOND_GRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/csr_matrix.h"
#include "core/tensor.h"

namespace mcond {

/// Adds self-loops with the given weight (skipping nodes that already have
/// one) — the Ã = A + I step of GCN normalization.
CsrMatrix AddSelfLoops(const CsrMatrix& a, float weight = 1.0f);

/// The rows of `a` (square) with self-loops added, as CSR arrays local to
/// the view's row range; returns the view of them (same row numbers as `a`).
/// Row r gets its loop at its sorted column position, unless it already
/// stores a diagonal entry, which is kept as is. The one self-loop merge:
/// AddSelfLoops runs it over a whole matrix, ShardedSymNormalize per
/// segment. Reuses the vectors' capacity.
CsrView AddSelfLoopRows(const CsrView& a, float weight,
                        std::vector<int64_t>* row_ptr,
                        std::vector<int32_t>* col_idx,
                        std::vector<float>* values);

/// D^{-1/2} from the degrees: 1/√deg, and 0 where deg <= 0.
std::vector<float> InvSqrtDegrees(const std::vector<float>& deg);

/// out[k] = values[k] · dinv_sqrt[r] · dinv_sqrt[col_idx[k]] for every
/// stored entry k of the view's rows (`out` indexed like `a.values`, r the
/// matrix row). The one SymNormalize rescale; row-parallel, and the AVX2
/// kernel it dispatches to is bit-identical to the scalar loop.
void SymNormalizeValues(const CsrView& a, const float* dinv_sqrt, float* out);

/// Symmetric GCN normalization D^{-1/2} (A + I) D^{-1/2}, where D is the
/// (weighted) degree of A + I. Zero-degree rows stay zero.
CsrMatrix SymNormalize(const CsrMatrix& a, bool add_self_loops = true);

/// Row-stochastic normalization D^{-1} A (random-walk / mean aggregation).
CsrMatrix RowNormalize(const CsrMatrix& a);

/// Indices of the labeled nodes (label >= 0), ascending.
std::vector<int64_t> LabeledNodes(const std::vector<int64_t>& labels);

/// Per-class node counts over the labeled nodes.
std::vector<int64_t> ClassCounts(const std::vector<int64_t>& labels,
                                 int64_t num_classes);

/// An attributed, labeled graph: the T = {A, X, Y} (or S = {A', X', Y'}) of
/// the paper. Holds the raw adjacency plus its cached GCN-normalized form so
/// repeated forward passes don't recompute degrees.
class Graph {
 public:
  Graph() : num_classes_(0) {}

  /// `adjacency` is the raw (no self-loop) adjacency; `labels[i]` in
  /// [0, num_classes) or -1 for unlabeled nodes.
  Graph(CsrMatrix adjacency, Tensor features, std::vector<int64_t> labels,
        int64_t num_classes);

  int64_t NumNodes() const { return adjacency_.rows(); }
  int64_t NumEdges() const { return adjacency_.Nnz(); }
  int64_t FeatureDim() const { return features_.cols(); }
  int64_t num_classes() const { return num_classes_; }

  const CsrMatrix& adjacency() const { return adjacency_; }
  const CsrMatrix& normalized_adjacency() const { return normalized_; }
  /// Row-normalized (A + I); used by GraphSAGE-style mean aggregation.
  const CsrMatrix& row_normalized_adjacency() const { return row_normalized_; }
  const Tensor& features() const { return features_; }
  const std::vector<int64_t>& labels() const { return labels_; }

  std::vector<int64_t> LabeledNodes() const {
    return mcond::LabeledNodes(labels_);
  }
  std::vector<int64_t> ClassCounts() const {
    return mcond::ClassCounts(labels_, num_classes_);
  }

  /// The paper's memory model for a deployed graph: CSR storage of the
  /// adjacency plus N·d float features.
  int64_t StorageBytes() const;

 private:
  CsrMatrix adjacency_;
  CsrMatrix normalized_;
  CsrMatrix row_normalized_;
  Tensor features_;
  std::vector<int64_t> labels_;
  int64_t num_classes_;
};

/// Induced subgraph on `nodes` (which must be distinct). Node i of the
/// result corresponds to original node nodes[i]; edges with both endpoints
/// in `nodes` are kept.
Graph InducedSubgraph(const Graph& g, const std::vector<int64_t>& nodes);

}  // namespace mcond

#endif  // MCOND_GRAPH_GRAPH_H_
