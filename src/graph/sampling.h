#ifndef MCOND_GRAPH_SAMPLING_H_
#define MCOND_GRAPH_SAMPLING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/csr_matrix.h"
#include "core/rng.h"
#include "core/status.h"

namespace mcond {

/// A mini-batch of node pairs with binary link targets for the structure
/// loss ℒ_str (Eq. 8): `target = 1` for observed edges of A, `0` for
/// sampled non-edges.
struct EdgeBatch {
  std::vector<int64_t> src;
  std::vector<int64_t> dst;
  std::vector<float> target;

  int64_t size() const { return static_cast<int64_t>(src.size()); }
};

/// Samples `num_pos` observed edges uniformly and `num_neg` uniform node
/// pairs rejected against A (non-edges). If the graph has fewer than
/// num_pos edges, all edges are used.
EdgeBatch SampleEdgeBatch(const CsrMatrix& adjacency, int64_t num_pos,
                          int64_t num_neg, Rng& rng);

/// The one RNG draw sequence behind SampleEdgeBatch and
/// ShardedSampleEdgeBatch, over a square adjacency given by its global
/// `row_ptr` (rows + 1 entries) and a row accessor: `row(r)` returns any
/// view that holds row r (the whole matrix, or the segment pinned for it),
/// valid until the next call. An accessor error ends the sampling with it.
StatusOr<EdgeBatch> SampleEdgeBatch(
    const std::vector<int64_t>& row_ptr,
    const std::function<StatusOr<CsrView>(int64_t r)>& row, int64_t num_pos,
    int64_t num_neg, Rng& rng);

}  // namespace mcond

#endif  // MCOND_GRAPH_SAMPLING_H_
