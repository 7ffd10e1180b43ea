#ifndef MCOND_SERVE_SESSION_BASE_H_
#define MCOND_SERVE_SESSION_BASE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "condense/condensed.h"
#include "core/csr_matrix.h"
#include "graph/graph.h"
#include "nn/module.h"

namespace mcond {

/// The immutable build-time state of a serving deployment: everything a
/// ServingSession derives from the base graph (synthetic A' of Eq. 11, or
/// the original A of Eq. 3) for the one operator its model reads
/// (GnnModel::operator_kind()), and that no request ever mutates.
///
/// Splitting this out of ServingSession lets a ReplicaPool of K sessions
/// over the same deployment share one copy — the operator's base structure
/// and normalized values, exact degree accumulators and CSC patch index are
/// paid once, and only the per-replica workspaces/arenas cost K times.
/// Built once via Build(); exposed as shared_ptr<const SessionBase>, so
/// concurrent readers need no synchronization.
///
/// Any base serves incrementally, whatever its degrees: a row summing to 0
/// keeps its entries in both normalizers (graph.h), so the cached normalized
/// block always has structure()'s layout.
///
/// Lifetime: the SessionBase stores references — the base graph (or the
/// condensed artifact whose graph/mapping it points into) must outlive it
/// and every session built on it.
struct SessionBase {
  /// CSC-style index over a base-block CSR: for each column, the rows that
  /// contain it and the value-index of that entry in the CSR arrays.
  struct CscIndex {
    std::vector<int64_t> col_ptr;
    std::vector<int32_t> row;
    std::vector<int64_t> val_idx;
  };

  /// Base over the original graph: request links attach directly.
  static std::shared_ptr<const SessionBase> Build(const Graph& base,
                                                  OperatorKind kind);
  /// Base over a condensed artifact: request links are converted through
  /// `condensed.mapping` (which must be non-empty) on every request.
  static std::shared_ptr<const SessionBase> Build(
      const CondensedGraph& condensed, OperatorKind kind);

  /// Bytes of the caches this object owns. The borrowed base graph (with
  /// its GCN-normalized form) and mapping are not counted — they exist
  /// independently of serving.
  int64_t memory_bytes() const;

  /// The operator's base structure and its normalized values (indexed alike).
  const CsrMatrix& structure() const {
    return self_loops ? loops : base_graph.adjacency();
  }
  /// The cached normalized base block: the Graph's SymNormalize(A) for
  /// gcn_norm, `normalized` otherwise. Indexed by structure()'s row_ptr.
  const CsrMatrix& normalized_block() const {
    return kind == OperatorKind::kGcnNorm ? base_graph.normalized_adjacency()
                                          : normalized;
  }
  const float* base_values() const {
    return normalized_block().values().data();
  }
  /// The operator's degree normalizer: graph.h's InvSqrtDegree (symmetric)
  /// or InvDegree.
  float Normalizer(float deg) const {
    return symmetric ? InvSqrtDegree(deg) : InvDegree(deg);
  }

  const Graph& base_graph;
  const CsrMatrix* mapping = nullptr;  // null for original-graph bases
  const OperatorKind kind;
  const bool self_loops;  // structure Ã = A + I, else the raw A (sym_no_loop)
  const bool symmetric;   // entries (v·dr)·dc, else v·dr (see Normalizer)
  int64_t n_base = 0;   // N (or N')
  int64_t feat_dim = 0;

  CsrMatrix loops;       // Ã; empty for sym_no_loop
  CsrMatrix normalized;  // base block; empty for gcn_norm (the Graph's)
  std::vector<double> deg_acc;  // exact RowSums partials of structure() rows
  std::vector<float> norm;      // Normalizer of each structure() row
  CscIndex csc;                 // empty for row_norm (row degree only)

 private:
  SessionBase(const Graph& g, OperatorKind k);
  void BuildCaches();
  static void BuildCsc(const CsrMatrix& m, CscIndex* out);
};

}  // namespace mcond

#endif  // MCOND_SERVE_SESSION_BASE_H_
