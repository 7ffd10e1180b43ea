#ifndef MCOND_GRAPH_COMPOSE_H_
#define MCOND_GRAPH_COMPOSE_H_

#include <cstdint>
#include <vector>

#include "core/csr_matrix.h"
#include "core/tensor.h"

namespace mcond {

/// Assembles the block adjacency of Eq. (3)/(11):
///
///   | base    linksᵀ |
///   | links   inter  |
///
/// where `base` is N×N (original A or synthetic A'), `links` is n×N (the
/// incremental adjacency a, or the converted aM), and `inter` is the n×n
/// adjacency among the incoming nodes (the graph-batch ã; pass an empty
/// n×n matrix for the node-batch setting).
CsrMatrix ComposeBlockAdjacency(const CsrMatrix& base, const CsrMatrix& links,
                                const CsrMatrix& inter);

/// Rows [row_begin, row_end) of that block adjacency as CSR arrays local to
/// the range; returns the view of them. Row r < N is base row r (read from
/// `base`, which must hold it) followed by linksᵀ row r shifted by N; row
/// N + i is links row i followed by inter row i shifted by N. `links_t` is
/// links.Transpose(). The one Eq. (3) row emitter: ComposeBlockAdjacency
/// runs it over all rows, ShardedComposeBlockAdjacency once per base segment
/// and once for the batch rows. Reuses the vectors' capacity.
CsrView ComposeRows(const CsrView& base, const CsrMatrix& links_t,
                    const CsrMatrix& links, const CsrMatrix& inter,
                    int64_t row_begin, int64_t row_end,
                    std::vector<int64_t>* row_ptr,
                    std::vector<int32_t>* col_idx,
                    std::vector<float>* values);

/// Stacks base features over incoming-node features: the 𝕏 of Eq. (3)/(11).
Tensor ComposeFeatures(const Tensor& base_features,
                       const Tensor& incoming_features);

}  // namespace mcond

#endif  // MCOND_GRAPH_COMPOSE_H_
