#ifndef MCOND_CORE_TENSOR_OPS_H_
#define MCOND_CORE_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "core/tensor.h"

namespace mcond {

/// Free functions on dense tensors. All functions MCOND_CHECK shape
/// compatibility — passing mismatched shapes is a programming error, not a
/// recoverable condition. Functions are pure (return a new tensor) unless
/// named *InPlace.
///
/// Kernels dispatch through the runtime SIMD tier (core/simd.h). On the
/// scalar tier every parallel kernel is bit-identical to its serial::
/// reference; on the AVX2 tier the GEMM family (FMA) and SoftmaxRows (FMA
/// and a lane reduction) are tolerance-bounded instead. The elementwise
/// ops have no tier: one loop body each, the same bits on every CPU. Within any one tier, results are
/// bit-identical at every thread count.
///
/// The three GEMM products share one per-element order: on the scalar tier
/// an ascending sum of rounded products from +0, on the AVX2 tier one
/// ascending fmadd chain from +0.

/// C = A · B. Cache-blocked (depth × column tiles) and row-parallel on the
/// global thread pool. Bit-identical to serial::MatMul at every thread
/// count on the scalar tier: each output row is produced by exactly one
/// chunk and every element accumulates its k-products in ascending order.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = Aᵀ · B. On the AVX2 tier without materializing the transpose:
/// parallel over OUTPUT rows (columns of A), blocked over input rows — the
/// scatter formulation writes output rows across input rows and would race
/// under naive row-parallelism. On the scalar tier MatMul's body runs on a
/// packed Aᵀ. Bit-identical to serial::MatMulTransA on the scalar tier.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// C = A · Bᵀ: MatMul's body on a packed Bᵀ (k×n, the size of B).
/// Bit-identical to serial::MatMulTransB on the scalar tier.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Retained single-threaded reference kernels — the exactness oracle. The
/// parallel kernels are tested bit-exact against these on the scalar SIMD
/// tier (tests/parallel_test.cc, tools/check_determinism.sh) and
/// tolerance-bounded on the AVX2 tier (tests/simd_test.cc); they are also
/// the serial baseline bench_kernels sweeps against. Note no `x == 0` skip:
/// 0 * inf and 0 * nan must propagate, and the branch mispredicts on
/// dense data (see docs/performance.md).
namespace serial {
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
Tensor SoftmaxRows(const Tensor& a);
}  // namespace serial

/// Elementwise arithmetic.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);
/// a += s * b (axpy). The workhorse of gradient accumulation.
void AxpyInPlace(Tensor& a, float s, const Tensor& b);

/// Adds a 1×cols row vector to every row of `a` (bias broadcast).
Tensor AddRowBroadcast(const Tensor& a, const Tensor& row);

Tensor Transpose(const Tensor& a);

/// Elementwise nonlinearities.
Tensor Relu(const Tensor& a);
/// d/dx relu(x) evaluated entrywise from the pre-activation.
Tensor ReluMask(const Tensor& pre_activation);
Tensor Sigmoid(const Tensor& a);
/// Eq. (15) of the paper in one row-parallel pass: per row, y = σ(a),
/// s = Σ_j y_j (double accumulator), then out = ReLU(y / s − eps) as
/// y·(1/s) + (−eps). Bit-identical to Sigmoid → RowSum → 1/s row scale →
/// add −eps → Relu. Rows must have s > 0. When `sigmoid` and
/// `inv_row_sums` are given, y and 1/s (rows×1) are written there for
/// SigmoidRowNormalizeBackward.
Tensor SigmoidRowNormalize(const Tensor& a, float eps,
                           Tensor* sigmoid = nullptr,
                           Tensor* inv_row_sums = nullptr);
/// ∂L/∂a of SigmoidRowNormalize from the upstream gradient `g` of `out`
/// and the saved y and 1/s. Bit-identical to the five-op chain's backward.
Tensor SigmoidRowNormalizeBackward(const Tensor& g, const Tensor& out,
                                   const Tensor& sigmoid,
                                   const Tensor& inv_row_sums);

/// Row-wise softmax with the max-subtraction trick for stability.
Tensor SoftmaxRows(const Tensor& a);
/// Index of the max entry per row.
std::vector<int64_t> ArgmaxRows(const Tensor& a);

/// Reductions.
float Sum(const Tensor& a);
/// √(Σ a²); used in tests.
float FrobeniusNorm(const Tensor& a);
/// rows×1 vector of per-row sums / L2 norms.
Tensor RowSum(const Tensor& a);
Tensor RowL2Norm(const Tensor& a);
/// 1×cols vector of per-column sums.
Tensor ColSum(const Tensor& a);

/// Stacks `top` above `bottom` (column counts must match).
Tensor ConcatRows(const Tensor& top, const Tensor& bottom);
/// Joins `left` and `right` side by side (row counts must match).
Tensor ConcatCols(const Tensor& left, const Tensor& right);

/// Rows [begin, end) as a new tensor.
Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end);
/// New tensor whose i-th row is a.row(indices[i]).
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);
/// Writes `src` into rows [begin, begin+src.rows()) of `dst`.
void ScatterRowsInPlace(Tensor& dst, int64_t begin, const Tensor& src);

/// Max absolute elementwise difference; used in tests.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

/// True iff |a-b| <= atol + rtol*|b| entrywise.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace mcond

#endif  // MCOND_CORE_TENSOR_OPS_H_
