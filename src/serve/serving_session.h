#ifndef MCOND_SERVE_SERVING_SESSION_H_
#define MCOND_SERVE_SERVING_SESSION_H_

#include <cstdint>
#include <vector>

#include <memory>

#include "condense/condensed.h"
#include "core/csr_matrix.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "core/tensor_arena.h"
#include "graph/inductive.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "serve/session_base.h"

namespace mcond {

/// Persistent serving state for one deployed base graph (synthetic A' of
/// Eq. 11, or the original A of Eq. 3) plus one trained model. Built once,
/// reused across requests; every request attaches a HeldOutBatch and
/// returns its logits.
///
/// Composing a deployment from scratch (`ComposeDeployment`) recomposes the
/// block adjacency, renormalizes all N+n rows, and restacks all N+n feature
/// rows, although >95% of that work is identical between requests. The
/// session amortizes the static part:
///
/// Cached at build time in a SessionBase (session_base.h; shareable across
/// sessions), for the one operator the model reads
/// (GnnModel::operator_kind): its base structure (Ã = A + I, or the raw A
/// for sym_no_loop), exact per-row degree accumulators (the double-precision
/// partial sums `RowSums` would produce, so a batch's contribution is
/// appended without reordering a float addition), its normalized base block
/// (reused verbatim for rows whose degree does not change), and its CSC
/// patch index (column → referencing entries; none for row_norm).
/// Owned per session (the replica workspace)
///  - preallocated workspaces: composed CSR buffers, the stacked feature
///    matrix, output logits, SpGEMM scratch for the aM conversion, and a
///    TensorArena that backs every intermediate tensor of the forward pass.
///
/// The split matters for concurrent serving: a ReplicaPool builds one
/// SessionBase and K sessions over it, so the immutable caches are paid
/// once and only the workspaces scale with K (ReplicaPool::memory_bytes()).
///
/// Per request (`Serve`)
///  - links are converted through the mapping (aM) into preallocated
///    buffers, replicating `CsrMatrix::Multiply`'s accumulation order;
///  - only the base's operator is rebuilt into the cached buffers
///    (parallel row copies of the base block + appended link columns); the
///    other two GraphOperators members stay empty;
///  - ONLY rows whose degree changed — the n batch rows plus the base rows
///    gaining a link — are renormalized; everything else is patched from
///    the cached operator values (a column pass fixes entries whose
///    *column* degree changed);
///  - only the n batch feature rows are copied into the persistent stacked
///    feature buffer;
///  - the forward pass runs inside the arena, and the batch logits are
///    copied into a persistent output tensor.
///
/// Exactness: results are bit-identical to `ComposeDeployment` + Predict at
/// every thread count — the same float expressions (graph.h's degree
/// normalizers among them) are evaluated in the same order; tests enforce
/// memcmp equality. There is one serving path: a row whose degree sums to 0,
/// in the base or in a request, keeps its entries scaled by 0 in every
/// operator, so it is patched like any other row.
///
/// Allocation contract: after one warm-up serve per batch shape,
/// steady-state `Serve` performs zero tensor-heap allocations
/// (`internal::TensorHeapAllocCount()` is flat across calls); workspaces
/// retain capacity and the arena retains its pages. Changing the batch
/// size re-warms the shape-dependent buffers.
///
/// Lifetime: the session stores references — the base graph (or condensed
/// artifact) and the model must outlive it. Not thread-safe; one session
/// serves one request at a time (kernels inside still use the global pool).
/// Distinct sessions over one shared SessionBase may serve concurrently
/// from different threads: the base is immutable and GnnModel::Predict is
/// read-only for every bundled architecture (ConcurrentServer relies on
/// exactly this, with each worker's kernels forced inline via
/// ScopedInlineParallelRegion so replicas don't contend for the pool).
///
/// Observability: the `mcond.serve.session_requests` counter;
/// `mcond.serve.session_convert_us` / `_compose_us` / `_forward_us` /
/// `_total_us` histograms (compose includes incremental normalization);
/// spans `serve.session[.convert|.compose|.forward]`.
class ServingSession {
 public:
  /// Session over the original graph (Eq. 3): links attach directly. Builds
  /// a private SessionBase for `model.operator_kind()`.
  ServingSession(const Graph& base, GnnModel& model);
  /// Session over a condensed artifact (Eq. 11): links are converted
  /// through `condensed.mapping` on every request. The mapping must be
  /// non-empty. Builds a private SessionBase for `model.operator_kind()`.
  ServingSession(const CondensedGraph& condensed, GnnModel& model);
  /// Replica over a prebuilt shared base (see SessionBase / ReplicaPool):
  /// only the per-session workspaces are allocated. The base must have
  /// been built for `model.operator_kind()` (checked).
  ServingSession(std::shared_ptr<const SessionBase> base, GnnModel& model);

  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  /// Serves one batch; returns the n×C batch logits. The reference is
  /// valid until the next Serve call. `graph_batch` keeps the batch's
  /// inter-edges (ã); otherwise the node-batch setting is used.
  const Tensor& Serve(const HeldOutBatch& batch, bool graph_batch, Rng& rng);

  /// The paper's memory model for the last request: raw composed CSR bytes
  /// + (N+n)·d feature floats. Mapping bytes are NOT included (callers add
  /// them when a mapping is in play).
  int64_t memory_bytes() const { return memory_bytes_; }
  /// Raw composed CSR bytes of the last request.
  int64_t composed_csr_bytes() const { return composed_csr_bytes_; }

  int64_t num_base_nodes() const { return base_->n_base; }

  /// The immutable build-time state this session serves from (shared with
  /// sibling replicas when built through a ReplicaPool).
  const std::shared_ptr<const SessionBase>& session_base() const {
    return base_;
  }

  /// Bytes of this session's own scratch: conversion/patch buffers,
  /// composed CSR storage (wherever it currently lives — the reclaimable
  /// vectors or the last request's operators), stacked features, output
  /// logits, and arena pages. Excludes the shared SessionBase
  /// (SessionBase::memory_bytes()); a standalone session's footprint is the
  /// sum of both.
  int64_t workspace_bytes() const;

 private:
  struct LinksView {
    const int64_t* row_ptr = nullptr;
    const int32_t* col_idx = nullptr;
    const float* values = nullptr;
    int64_t nnz = 0;
  };

  void EnsureBatchShape(int64_t n);
  /// aM SpGEMM into conv_* buffers; bit-identical to CsrMatrix::Multiply.
  LinksView ConvertLinks(const CsrMatrix& links);
  /// Computes the operator's composed degrees / normalizers for changed
  /// base rows and batch rows.
  void ComputeDegrees(const LinksView& lv, const CsrMatrix* inter, int64_t n);
  /// Builds the operator's composed CSR structure + values into the cached
  /// buffers and moves them into ops_.
  void BuildComposed(const LinksView& lv, const CsrMatrix* inter, int64_t n);
  void StackBatchFeatures(const Tensor& batch_features);

  // ---- build-time caches, immutable and shareable across replicas ----
  std::shared_ptr<const SessionBase> base_;
  GnnModel& model_;

  // ---- per-request scratch (persistent, capacity-stable) ----
  uint32_t epoch_ = 0;
  // aM conversion (condensed sessions): accumulator + occupancy bitmap.
  std::vector<float> conv_acc_;
  std::vector<uint64_t> conv_bits_;
  std::vector<int64_t> conv_rp_;
  std::vector<int32_t> conv_ci_;
  std::vector<float> conv_v_;
  // Changed base rows and their updated degrees/normalizers.
  std::vector<uint32_t> changed_stamp_;
  std::vector<int32_t> changed_;
  std::vector<int64_t> extra_;  // appended links per changed base row
  std::vector<double> new_acc_;
  std::vector<float> new_norm_;
  std::vector<float> b_norm_;  // batch-row normalizers
  // The composed operator's CSR buffers (moved into ops_ per request).
  std::vector<int64_t> rp_;
  std::vector<int32_t> ci_;
  std::vector<float> v_;
  std::vector<int64_t> cursor_;

  // ---- persistent outputs ----
  GraphOperators ops_;
  Tensor features_;    // (N+n)×d; base rows filled once per shape
  Tensor out_logits_;  // n×C
  internal::TensorArena arena_;
  int64_t cur_n_ = -1;
  int64_t memory_bytes_ = 0;
  int64_t composed_csr_bytes_ = 0;

  // Cached metric handles (lookups allocate; do them once).
  obs::Counter& requests_;
  obs::Histogram& convert_hist_;
  obs::Histogram& compose_hist_;
  obs::Histogram& forward_hist_;
  obs::Histogram& total_hist_;
};

}  // namespace mcond

#endif  // MCOND_SERVE_SERVING_SESSION_H_
