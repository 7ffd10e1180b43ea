#ifndef MCOND_CONDENSE_DENSE_OPS_H_
#define MCOND_CONDENSE_DENSE_OPS_H_

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/csr_matrix.h"

namespace mcond {

/// Differentiable GCN normalization of a dense adjacency Variable:
/// Â = D^{-1/2}(A + I)D^{-1/2} with D = rowsum(A + I). Used for the
/// generated A', which carries gradients during S updates.
Variable NormalizeDenseAdjacency(const Variable& a);

/// Â^depth · x with a dense Â (the SGC propagation on small graphs).
Variable PropagateDense(const Variable& a_hat, const Variable& x,
                        int64_t depth);

/// The support rows of Â^depth · [x_syn; x_sup], where Â is the GCN
/// normalization D^{-1/2}(A + I)D^{-1/2} of the block adjacency of Eq. (11)
///   A = | a_syn   linksᵀ |
///       | links   inter  |
/// computed block by block, so the (N'+n)² matrix is never formed:
///   d_syn = rowsum(a_syn) + colsum(links) + 1,
///   d_sup = rowsum(links) + rowsum(inter) + 1,   s = d^{-1/2};
/// each hop scales z by s into u and takes
///   z_syn ← s_syn ⊙ ((a_syn + I)·u_syn + linksᵀ·u_sup),
///   z_sup ← s_sup ⊙ (links·u_syn + inter·u_sup + u_sup),
/// and the last hop computes z_sup only. With N' = a_syn rows and n = links
/// rows, one hop costs O(N'²d + nN'd + nnz(inter)·d) where the dense
/// product costs O((N'+n)²d). This is the ℒ_ind forward of Eq. (12):
/// `links` = aM carries the gradient. `inter` enters as a constant through
/// ops::SpMM and must outlive any Backward() over the result.
Variable PropagateBlockSupportRows(const Variable& a_syn,
                                   const Variable& links,
                                   const CsrMatrix& inter,
                                   const Variable& x_syn,
                                   const Variable& x_sup, int64_t depth);

}  // namespace mcond

#endif  // MCOND_CONDENSE_DENSE_OPS_H_
