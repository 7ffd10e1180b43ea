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
/// Cached at build time (in a SessionBase, shareable across sessions)
///  - the base adjacency with self-loops (Ã = A + I) and its raw form;
///  - exact per-row degree accumulators (the double-precision partial sums
///    `RowSums` would produce), so a batch's contribution can be appended
///    without reordering a single float addition;
///  - the base blocks of all three normalized operators (GCN, row-norm,
///    sym-no-loop), i.e. the values that are reused verbatim for rows whose
///    degree does not change;
///  - CSC patch indexes of the base block, mapping each column to the
///    (row, value-index) pairs that reference it, so a degree change in
///    column c touches only the entries that actually contain c.
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
///  - the composed structure is rebuilt into the cached buffers (parallel
///    row copies of the base block + appended link columns);
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
/// every thread count — the same float expressions are evaluated in the
/// same order; tests enforce memcmp equality. The one semantic corner that
/// cannot be patched incrementally — `RowNormalize` *dropping* rows whose
/// degree is exactly 0 — is detected (at build for base rows, per request for
/// changed/batch rows) and routed to an exact full-recompose fallback;
/// `fallback_serves()` counts how often that happened (0 on real graphs).
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
/// Observability: `mcond.serve.session_requests` / `_fallbacks` counters;
/// `mcond.serve.session_convert_us` / `_compose_us` / `_forward_us` /
/// `_total_us` histograms (compose includes incremental normalization);
/// spans `serve.session[.convert|.compose|.forward]`.
class ServingSession {
 public:
  /// Session over the original graph (Eq. 3): links attach directly.
  ServingSession(const Graph& base, GnnModel& model);
  /// Session over a condensed artifact (Eq. 11): links are converted
  /// through `condensed.mapping` on every request. The mapping must be
  /// non-empty.
  ServingSession(const CondensedGraph& condensed, GnnModel& model);
  /// Replica over a prebuilt shared base (see SessionBase / ReplicaPool):
  /// only the per-session workspaces are allocated.
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

  /// Number of serves that took the exact full-recompose fallback (degree-0
  /// structural corner); 0 in healthy deployments.
  int64_t fallback_serves() const { return fallback_serves_; }

  int64_t num_base_nodes() const { return n_base_; }

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
  void BumpEpoch();
  /// aM SpGEMM into conv_* buffers; bit-identical to CsrMatrix::Multiply.
  LinksView ConvertLinks(const CsrMatrix& links);
  /// Computes composed degrees / normalizers for changed base rows and
  /// batch rows. Returns false if a degree-0 row would trigger
  /// RowNormalize's entry-dropping path (take the fallback).
  bool ComputeDegrees(const LinksView& lv, const CsrMatrix* inter, int64_t n);
  /// Builds the composed CSR structures + values into the cached buffers
  /// and assembles ops_ from them.
  void BuildComposed(const LinksView& lv, const CsrMatrix* inter, int64_t n);
  /// Exact slow path: full compose + FromAdjacency (same code as
  /// ComposeDeployment).
  void FallbackCompose(const HeldOutBatch& batch, bool graph_batch,
                       int64_t n);
  void StackBatchFeatures(const Tensor& batch_features);

  // ---- build-time caches, immutable and shareable across replicas ----
  std::shared_ptr<const SessionBase> base_;
  GnnModel& model_;

  int64_t n_base_ = 0;   // N (or N'), mirrors base_->n_base
  int64_t feat_dim_ = 0;  // mirrors base_->feat_dim

  // ---- per-request scratch (persistent, capacity-stable) ----
  uint32_t epoch_ = 0;
  uint32_t conv_epoch_ = 0;
  // aM conversion (condensed sessions): dense accumulator over base nodes.
  std::vector<float> conv_acc_;
  std::vector<uint32_t> conv_stamp_;
  std::vector<int32_t> conv_touched_;
  std::vector<int64_t> conv_rp_;
  std::vector<int32_t> conv_ci_;
  std::vector<float> conv_v_;
  // Changed base rows and their updated degrees/normalizers.
  std::vector<uint32_t> changed_stamp_;
  std::vector<int32_t> changed_;
  std::vector<int64_t> extra_;  // appended links per changed base row
  std::vector<double> new_acc_loop_;
  std::vector<double> new_acc_noloop_;
  std::vector<float> new_dinv_gcn_;
  std::vector<float> new_inv_row_;
  std::vector<float> new_dinv_noloop_;
  // Batch-row normalizers.
  std::vector<float> b_dinv_gcn_;
  std::vector<float> b_inv_row_;
  std::vector<float> b_dinv_noloop_;
  // Composed CSR buffers. The with-self-loop structure (gcn_rp_/gcn_ci_) is
  // shared by gcn_norm and row_norm (copied into row_rp_/row_ci_ so each
  // CsrMatrix owns its arrays); sym_no_loop has its own raw structure.
  std::vector<int64_t> gcn_rp_, row_rp_, sym_rp_;
  std::vector<int32_t> gcn_ci_, row_ci_, sym_ci_;
  std::vector<float> gcn_v_, row_v_, sym_v_;
  std::vector<int64_t> cursor_loop_;
  std::vector<int64_t> cursor_noloop_;

  // ---- persistent outputs ----
  GraphOperators ops_;
  Tensor features_;    // (N+n)×d; base rows filled once per shape
  Tensor out_logits_;  // n×C
  internal::TensorArena arena_;
  int64_t cur_n_ = -1;
  int64_t memory_bytes_ = 0;
  int64_t composed_csr_bytes_ = 0;
  int64_t fallback_serves_ = 0;

  // Cached metric handles (lookups allocate; do them once).
  obs::Counter& requests_;
  obs::Counter& fallbacks_;
  obs::Histogram& convert_hist_;
  obs::Histogram& compose_hist_;
  obs::Histogram& forward_hist_;
  obs::Histogram& total_hist_;
};

}  // namespace mcond

#endif  // MCOND_SERVE_SERVING_SESSION_H_
