#ifndef MCOND_CONDENSE_RELAY_SGC_H_
#define MCOND_CONDENSE_RELAY_SGC_H_

#include <utility>
#include <vector>

#include "nn/module.h"

namespace mcond {

/// The relay GNN f(·) of §III (Eq. 4): a two-layer *linear* SGC,
/// f(A, X) = Â^L X W₁ W₂, matching the paper's choice of SGC for
/// condensation. Linearity is what makes the gradient-matching loss cheap:
/// the per-layer weight gradients of the cross-entropy have closed forms
/// that we express directly as autograd graphs over the propagated features
/// (see WeightGradients), so ∇_{X',Φ} ℒ_gra needs only first-order
/// backpropagation — mathematically identical to double-backward through
/// an SGC, at a fraction of the cost (DESIGN.md §3, substitution 3).
class RelaySgc : public Module {
 public:
  RelaySgc(int64_t in_dim, int64_t hidden_dim, int64_t num_classes,
           int64_t depth, Rng& rng);

  int64_t depth() const { return depth_; }
  int64_t num_classes() const { return num_classes_; }

  /// Logits from already-propagated features z = Â^L X. The weights enter
  /// detached, so gradients flow into z (and whatever produced it), never
  /// into θ — matching Eq. (4), where θ_t is a constant of the outer
  /// minimization.
  Variable Logits(const Variable& propagated) const;

  /// Plain-tensor forward for constants (embeddings H, H_sup).
  Tensor LogitsTensor(const Tensor& propagated) const;

  /// Analytic {∇_{W₁}, ∇_{W₂}} of mean CE(softmax(z W₁ W₂), labels) as
  /// differentiable expressions of `propagated`:
  ///   R = (softmax(zW₁W₂) − onehot(Y)) / n,
  ///   ∇_{W₂} = (zW₁)ᵀ R,   ∇_{W₁} = zᵀ (R W₂ᵀ).
  std::vector<Variable> WeightGradients(
      const Variable& propagated, const std::vector<int64_t>& labels) const;

  /// The original-graph side 𝒢ᵀ = {∇_{W₁}, ∇_{W₂}} of mean
  /// CE(softmax(z W₁ W₂), labels) as plain tensors, its inputs being
  /// constant. The relay is linear, so both gradients factor through
  /// W = W₁W₂ (d×C) and P = zᵀ R (d×C), R = softmax(zW) − onehot(Y):
  ///   ∇_{W₁} = P W₂ᵀ / n,   ∇_{W₂} = W₁ᵀ P / n.
  /// Rows of `propagated` are processed in [begin, end) blocks spread over
  /// the pool (ParallelFor over the block index, grain 1): each block
  /// copies its rows of z and forms its logits and R (rows×C), so up to
  /// pool-width blocks of that state are live at once. The unscaled
  /// per-block P_b are merged in block order and scaled by 1/n once at the
  /// end. The block partition is fixed by the
  /// caller — independent of thread count and of any memory budget — and
  /// each block's kernels run inline on one thread, which the determinism
  /// contract makes bit-identical to pooled kernels; so the result is
  /// deterministic across thread counts and budgets. Against the
  /// unfactored (zW₁)ᵀR and zᵀ(RW₂ᵀ), and across block partitions, results
  /// differ by float reassociation only.
  std::vector<Tensor> WeightGradientTensorsBlocked(
      const Tensor& propagated, const std::vector<int64_t>& labels,
      const std::vector<std::pair<int64_t, int64_t>>& blocks) const;

  /// One optimizer step of the relay on the synthetic graph (line 11 of
  /// Algorithm 1): CE loss on (propagated', Y'), gradients flow into θ only.
  /// Returns the loss value.
  float TrainStep(const Tensor& propagated, const std::vector<int64_t>& labels,
                  class Optimizer& optimizer);

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  int64_t in_dim_;
  int64_t hidden_dim_;
  int64_t num_classes_;
  int64_t depth_;
  Variable w1_;
  Variable w2_;
};

}  // namespace mcond

#endif  // MCOND_CONDENSE_RELAY_SGC_H_
