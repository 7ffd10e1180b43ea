#ifndef MCOND_TESTS_DENSE_BLOCK_ORACLE_H_
#define MCOND_TESTS_DENSE_BLOCK_ORACLE_H_

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "condense/dense_ops.h"
#include "core/csr_matrix.h"

namespace mcond {
namespace testing {

/// [top; bottom]. Stacking rows is concatenating the transposes by columns,
/// the same data movement forward and backward.
inline Variable StackRows(const Variable& top, const Variable& bottom) {
  return ops::Transpose(
      ops::ConcatCols(ops::Transpose(top), ops::Transpose(bottom)));
}

/// Assembles the dense block adjacency of Eq. (11):
///   | base     linksᵀ |
///   | links    inter  |
/// The literal (N'+n)² form that PropagateBlockSupportRows factors.
inline Variable ComposeDenseBlockAdjacency(const Variable& base,
                                           const Variable& links,
                                           const Variable& inter) {
  MCOND_CHECK_EQ(base->rows(), base->cols());
  MCOND_CHECK_EQ(links->cols(), base->cols());
  MCOND_CHECK_EQ(inter->rows(), links->rows());
  MCOND_CHECK_EQ(inter->cols(), links->rows());
  Variable top = ops::ConcatCols(base, ops::Transpose(links));
  Variable bottom = ops::ConcatCols(links, inter);
  return StackRows(top, bottom);
}

/// The dense chain PropagateBlockSupportRows replaces: compose, normalize,
/// propagate [x_syn; x_sup] through the whole matrix, keep the support rows.
inline Variable DenseSupportRows(const Variable& a_syn, const Variable& links,
                                 const CsrMatrix& inter, const Variable& x_syn,
                                 const Variable& x_sup, int64_t depth) {
  const Variable a_hat = NormalizeDenseAdjacency(ComposeDenseBlockAdjacency(
      a_syn, links, MakeConstant(inter.ToDense())));
  const Variable z = PropagateDense(a_hat, StackRows(x_syn, x_sup),
                                    depth);
  return ops::SliceRows(z, a_syn->rows(), a_syn->rows() + links->rows());
}

}  // namespace testing
}  // namespace mcond

#endif  // MCOND_TESTS_DENSE_BLOCK_ORACLE_H_
