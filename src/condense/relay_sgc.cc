#include "condense/relay_sgc.h"

#include "autograd/optimizer.h"
#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "nn/metrics.h"

namespace mcond {

RelaySgc::RelaySgc(int64_t in_dim, int64_t hidden_dim, int64_t num_classes,
                   int64_t depth, Rng& rng)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      num_classes_(num_classes),
      depth_(depth) {
  w1_ = MakeVariable(rng.GlorotTensor(in_dim, hidden_dim),
                     /*requires_grad=*/true);
  w2_ = MakeVariable(rng.GlorotTensor(hidden_dim, num_classes),
                     /*requires_grad=*/true);
}

Variable RelaySgc::Logits(const Variable& propagated) const {
  Variable w1c = MakeConstant(w1_->value());
  Variable w2c = MakeConstant(w2_->value());
  return ops::MatMul(ops::MatMul(propagated, w1c), w2c);
}

Tensor RelaySgc::LogitsTensor(const Tensor& propagated) const {
  return MatMul(MatMul(propagated, w1_->value()), w2_->value());
}

std::vector<Variable> RelaySgc::WeightGradients(
    const Variable& propagated, const std::vector<int64_t>& labels) const {
  MCOND_CHECK_EQ(propagated->rows(), static_cast<int64_t>(labels.size()));
  const int64_t n = propagated->rows();
  Variable w1c = MakeConstant(w1_->value());
  Variable w2c = MakeConstant(w2_->value());
  Variable zw1 = ops::MatMul(propagated, w1c);
  Variable probs = ops::SoftmaxRows(ops::MatMul(zw1, w2c));
  Variable residual = ops::Scale(
      ops::Sub(probs, MakeConstant(OneHot(labels, num_classes_))),
      1.0f / static_cast<float>(n));
  Variable g2 = ops::MatMul(ops::Transpose(zw1), residual);
  Variable g1 = ops::MatMul(ops::Transpose(propagated),
                            ops::MatMul(residual, ops::Transpose(w2c)));
  return {g1, g2};
}

std::vector<Tensor> RelaySgc::WeightGradientTensorsBlocked(
    const Tensor& propagated, const std::vector<int64_t>& labels,
    const std::vector<std::pair<int64_t, int64_t>>& blocks) const {
  MCOND_CHECK_EQ(propagated.rows(), static_cast<int64_t>(labels.size()));
  const int64_t n = propagated.rows();
  int64_t covered = 0;
  for (const auto& [begin, end] : blocks) {
    MCOND_CHECK(begin == covered && end >= begin && end <= n)
        << "gradient blocks must tile the rows in order";
    covered = end;
  }
  MCOND_CHECK_EQ(covered, n) << "gradient blocks must cover every row";
  // The relay is linear, so both gradients factor through W = W₁W₂ and
  // P = Zᵀ R (d×C): per block only logits Z_b W and R_b = softmax − onehot
  // (rows×C) are formed. The blocks are spread over the pool; each block's
  // kernels run inline on its thread (nested ParallelFor), which gives the
  // same bits as pooled kernels, and write its unscaled P_b into its own
  // slot.
  const Tensor& w1 = w1_->value();
  const Tensor& w2 = w2_->value();
  const Tensor w = MatMul(w1, w2);
  std::vector<Tensor> p_parts(blocks.size());
  ParallelFor(
      0, static_cast<int64_t>(blocks.size()), 1,
      [&](int64_t b0, int64_t b1) {
        for (int64_t b = b0; b < b1; ++b) {
          const auto [begin, end] = blocks[static_cast<size_t>(b)];
          if (end == begin) continue;
          const Tensor z_b = SliceRows(propagated, begin, end);
          const std::vector<int64_t> labels_b(labels.begin() + begin,
                                              labels.begin() + end);
          const Tensor residual = Sub(SoftmaxRows(MatMul(z_b, w)),
                                      OneHot(labels_b, num_classes_));
          p_parts[static_cast<size_t>(b)] = MatMulTransA(z_b, residual);
        }
      },
      "condense.original_grad_blocks");
  // Merge in block order, independent of which thread ran which block.
  Tensor p(in_dim_, num_classes_);
  for (const Tensor& part : p_parts) {
    if (!part.empty()) AxpyInPlace(p, 1.0f, part);
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  return {Scale(MatMulTransB(p, w2), inv_n),   // ∇W₁ = P W₂ᵀ / n
          Scale(MatMulTransA(w1, p), inv_n)};  // ∇W₂ = W₁ᵀ P / n
}

float RelaySgc::TrainStep(const Tensor& propagated,
                          const std::vector<int64_t>& labels,
                          Optimizer& optimizer) {
  Variable z = MakeConstant(propagated);
  Variable logits = ops::MatMul(ops::MatMul(z, w1_), w2_);
  Variable loss = ops::SoftmaxCrossEntropy(logits, labels);
  optimizer.ZeroGrad();
  Backward(loss);
  optimizer.Step();
  return loss->value().At(0, 0);
}

std::vector<Variable> RelaySgc::Parameters() const { return {w1_, w2_}; }

void RelaySgc::ResetParameters(Rng& rng) {
  w1_->mutable_value() = rng.GlorotTensor(in_dim_, hidden_dim_);
  w2_->mutable_value() = rng.GlorotTensor(hidden_dim_, num_classes_);
  w1_->ZeroGrad();
  w2_->ZeroGrad();
}

}  // namespace mcond
