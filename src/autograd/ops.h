#ifndef MCOND_AUTOGRAD_OPS_H_
#define MCOND_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "core/csr_matrix.h"
#include "core/rng.h"

namespace mcond {
namespace ops {

/// Differentiable operations over Variables. Every function builds a tape
/// node whose backward closure pushes gradients into parents that require
/// them. Sparse matrices enter only as constants (graph adjacencies); the
/// trainable pieces — features X', MLP_Φ, mapping M, GNN weights — are dense.

/// C = A · B.
Variable MatMul(const Variable& a, const Variable& b);

/// Y = S · X for a constant sparse S. `s` must outlive any Backward() call
/// on a graph containing this node (adjacencies owned by Graph objects
/// satisfy this).
Variable SpMM(const CsrMatrix& s, const Variable& x);

/// Elementwise arithmetic.
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Scale(const Variable& a, float s);
Variable AddScalar(const Variable& a, float c);

/// Bias-style broadcasts.
Variable AddRowBroadcast(const Variable& a, const Variable& row_1xd);
/// out[i][j] = a[i][j] * v[i] for an n×1 column vector v.
Variable MulRowBroadcast(const Variable& a, const Variable& col_nx1);
/// out[i][j] = a[i][j] * v[j] for a 1×m row vector v.
Variable MulColBroadcast(const Variable& a, const Variable& row_1xm);
/// out[i][j] = a[i][j] / v[i]; v must be strictly positive.
Variable DivRowBroadcast(const Variable& a, const Variable& col_nx1);

/// All-pairs row sum: for an n×h `u` and an m×h `v`, the (n·m)×h result has
/// row i·m + j = u_i + v_j. The backward reduces dU over each m-row block
/// and dV over the column blocks, each in ascending order, so the gradient
/// bits do not depend on the pool width. This is the factored first layer
/// of the MLP_Φ pair scorer (Eq. 6): [x_i ; x_j]·[W_a ; W_b] =
/// (x W_a)_i + (x W_b)_j.
Variable PairSum(const Variable& u, const Variable& v);

/// Nonlinearities.
Variable Relu(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable TanhV(const Variable& a);
/// Eq. (15): ReLU(σ(a_i) / Σ_j σ(a_ij) − eps) per row, as one taped op
/// whose forward and backward are each one row-parallel pass. Same bits as
/// Relu(AddScalar(DivRowBroadcast(Sigmoid(a), RowSum(Sigmoid(a))), −eps)).
Variable SigmoidRowNormalize(const Variable& a, float eps);
/// Elementwise power; inputs must be positive when p is fractional.
Variable PowV(const Variable& a, float p);

/// Shape ops.
Variable Transpose(const Variable& a);
/// Row-major reinterpretation to rows×cols (size must match).
Variable Reshape(const Variable& a, int64_t rows, int64_t cols);
Variable ConcatRows(const Variable& top, const Variable& bottom);
Variable ConcatCols(const Variable& left, const Variable& right);
Variable SliceRows(const Variable& a, int64_t begin, int64_t end);
Variable GatherRows(const Variable& a, std::vector<int64_t> indices);

/// Reductions.
Variable RowSum(const Variable& a);
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

/// Row-wise softmax (stable).
Variable SoftmaxRows(const Variable& a);

/// Mean cross-entropy of row-wise softmax(logits) against integer labels.
/// The canonical classification loss L(·) of the paper.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int64_t>& labels);

/// L2,1 norm: Σ_i ||row_i||₂. Used by the transductive (Eq. 10) and
/// inductive (Eq. 12) mapping losses.
Variable L21Norm(const Variable& a);

/// Σ_j (1 − cos(a[:,j], b[:,j])): the per-column cosine gradient distance of
/// Eq. (5). Columns with near-zero norm on either side contribute distance 1
/// with zero gradient.
Variable CosineColumnDistance(const Variable& a, const Variable& b);

/// n×1 vector of per-row dot products a[i]·b[i]. Used to score sampled node
/// pairs in the structure loss (Eq. 8).
Variable RowsDotRows(const Variable& a, const Variable& b);

/// Mean binary cross-entropy with logits against constant targets in [0,1].
Variable BceWithLogits(const Variable& scores, const Tensor& targets);

/// Inverted dropout; identity when `training` is false.
Variable Dropout(const Variable& a, float p, Rng& rng, bool training);

/// Cuts the tape: returns a constant with a copy of a's value.
Variable Detach(const Variable& a);

}  // namespace ops
}  // namespace mcond

#endif  // MCOND_AUTOGRAD_OPS_H_
