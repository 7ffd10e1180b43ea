#ifndef MCOND_GRAPH_SHARDED_OPS_H_
#define MCOND_GRAPH_SHARDED_OPS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_csr.h"
#include "core/status.h"
#include "core/tensor.h"
#include "graph/graph.h"
#include "graph/sampling.h"

namespace mcond {

/// Streamed passes of the graph kernels. Each one pins the segments of a
/// ShardedCsr one at a time in SequentialCursor order (bounded by the
/// store's memory budget) and runs, on each segment's CsrView, the same
/// row-range kernel the resident CsrMatrix / graph.h operation runs on its
/// whole-matrix view: SpMM and RowSums (core/csr_matrix.h), AddSelfLoopRows
/// and SymNormalizeValues (graph.h), ComposeRows (compose.h), and the
/// SampleEdgeBatch draw sequence (sampling.h). Each output row comes from
/// one kernel call whose per-row arithmetic does not depend on how rows are
/// split into views, so every result is BIT-IDENTICAL to its resident
/// counterpart at every thread count, SIMD tier and prefetch depth.

/// Â^depth X streamed over segments; with a non-empty `keep` the final hop
/// only materializes the kept rows (out row i = propagated row keep[i]),
/// matching GatherRows(Â^depth X, keep) bit-for-bit without the last full
/// N×d buffer. A keep row outside [0, N) is OutOfRange at every depth.
StatusOr<Tensor> ShardedPropagate(const ShardedCsr& a_hat, const Tensor& x,
                                  int64_t depth,
                                  const std::vector<int64_t>& keep = {});

/// Streams D^{-1/2}(A + I)D^{-1/2} into a new store at `out_path` (two
/// passes over each segment's rows of A + I: degrees, then rescaled rows).
/// Bit-identical to graph.h SymNormalize on the resident matrix.
StatusOr<ShardedCsr> ShardedSymNormalize(const ShardedCsr& a,
                                         const std::string& out_path,
                                         const ShardOptions& options = {},
                                         int64_t mem_budget_bytes = 0);

/// Streams the Eq. (3) block adjacency [[base, linksᵀ], [links, inter]] into
/// a new store, bit-identical (structure and values) to the resident
/// ComposeBlockAdjacency.
StatusOr<ShardedCsr> ShardedComposeBlockAdjacency(
    const ShardedCsr& base, const CsrMatrix& links, const CsrMatrix& inter,
    const std::string& out_path, const ShardOptions& options = {},
    int64_t mem_budget_bytes = 0);

/// SampleEdgeBatch's RNG draw sequence against a sharded adjacency:
/// identical batches for identical seeds, one pinned segment per slot/entry
/// probe.
StatusOr<EdgeBatch> ShardedSampleEdgeBatch(const ShardedCsr& adjacency,
                                           int64_t num_pos, int64_t num_neg,
                                           Rng& rng);

/// The out-of-core counterpart of Graph: adjacency and its sym-normalized
/// form live in segment stores; features/labels stay dense (they are the
/// "dense synthetic state" the condense loop is allowed to hold).
struct ShardedGraph {
  std::shared_ptr<ShardedCsr> adjacency;
  std::shared_ptr<ShardedCsr> normalized;
  Tensor features;
  std::vector<int64_t> labels;
  int64_t num_classes = 0;

  int64_t NumNodes() const { return adjacency ? adjacency->rows() : 0; }
  int64_t FeatureDim() const { return features.cols(); }
};

/// Spills a resident graph into a sharded one under `dir` (created if
/// missing): adjacency.mcss + normalized.mcss. Used by tests/gates to force
/// small graphs through the out-of-core path; the XL pipeline writes its
/// stores directly from the generator instead.
StatusOr<ShardedGraph> ShardGraph(const Graph& g, const std::string& dir,
                                  const ShardOptions& options = {},
                                  int64_t mem_budget_bytes = 0);

}  // namespace mcond

#endif  // MCOND_GRAPH_SHARDED_OPS_H_
