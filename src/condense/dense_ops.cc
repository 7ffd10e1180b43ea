#include "condense/dense_ops.h"

#include <utility>
#include <vector>

namespace mcond {

Variable NormalizeDenseAdjacency(const Variable& a) {
  MCOND_CHECK_EQ(a->rows(), a->cols()) << "adjacency must be square";
  Variable with_loops =
      ops::Add(a, MakeConstant(Tensor::Identity(a->rows())));
  Variable degree = ops::RowSum(with_loops);
  // Degrees are >= 1 thanks to the self-loop, so the fractional power and
  // the division below are well-defined.
  Variable dinv_sqrt = ops::PowV(degree, -0.5f);
  Variable scaled_rows = ops::MulRowBroadcast(with_loops, dinv_sqrt);
  return ops::MulColBroadcast(scaled_rows, ops::Transpose(dinv_sqrt));
}

Variable PropagateDense(const Variable& a_hat, const Variable& x,
                        int64_t depth) {
  Variable h = x;
  for (int64_t i = 0; i < depth; ++i) h = ops::MatMul(a_hat, h);
  return h;
}

Variable PropagateBlockSupportRows(const Variable& a_syn,
                                   const Variable& links,
                                   const CsrMatrix& inter,
                                   const Variable& x_syn,
                                   const Variable& x_sup, int64_t depth) {
  const int64_t n_syn = a_syn->rows();
  const int64_t n_sup = links->rows();
  MCOND_CHECK_EQ(a_syn->cols(), n_syn) << "adjacency must be square";
  MCOND_CHECK_EQ(links->cols(), n_syn);
  MCOND_CHECK_EQ(inter.rows(), n_sup);
  MCOND_CHECK_EQ(inter.cols(), n_sup);
  MCOND_CHECK_EQ(x_syn->rows(), n_syn);
  MCOND_CHECK_EQ(x_sup->rows(), n_sup);
  MCOND_CHECK_EQ(x_syn->cols(), x_sup->cols());
  MCOND_CHECK_GE(depth, 0);

  // Degrees of A + I, block by block. The self-loops make every degree
  // >= 1, so d^{-1/2} is well-defined.
  const Variable links_t = ops::Transpose(links);
  const std::vector<float> inter_rows = inter.RowSums();
  Tensor inter_degree(n_sup, 1);
  for (int64_t i = 0; i < n_sup; ++i) {
    inter_degree.At(i, 0) = inter_rows[static_cast<size_t>(i)] + 1.0f;
  }
  const Variable s_syn = ops::PowV(
      ops::AddScalar(ops::Add(ops::RowSum(a_syn), ops::RowSum(links_t)),
                     1.0f),
      -0.5f);
  const Variable s_sup = ops::PowV(
      ops::Add(ops::RowSum(links), MakeConstant(std::move(inter_degree))),
      -0.5f);

  Variable z_syn = x_syn;
  Variable z_sup = x_sup;
  for (int64_t hop = 0; hop < depth; ++hop) {
    const Variable u_syn = ops::MulRowBroadcast(z_syn, s_syn);
    const Variable u_sup = ops::MulRowBroadcast(z_sup, s_sup);
    const Variable sup = ops::Add(
        ops::Add(ops::MatMul(links, u_syn), ops::SpMM(inter, u_sup)), u_sup);
    if (hop + 1 < depth) {
      const Variable syn =
          ops::Add(ops::Add(ops::MatMul(a_syn, u_syn), u_syn),
                   ops::MatMul(links_t, u_sup));
      z_syn = ops::MulRowBroadcast(syn, s_syn);
    }
    z_sup = ops::MulRowBroadcast(sup, s_sup);
  }
  return z_sup;
}

}  // namespace mcond
