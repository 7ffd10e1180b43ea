#ifndef MCOND_NN_CHEBY_H_
#define MCOND_NN_CHEBY_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace mcond {

/// Two-layer ChebNet (Defferrard et al., 2016). Each layer evaluates the
/// order-K Chebyshev expansion of the rescaled Laplacian
/// L̃ = 2L/λ_max − I ≈ −D^{-1/2} A D^{-1/2} (using the standard λ_max ≈ 2
/// approximation):
///   y = Σ_{k=0..K} T_k(L̃) x W_k,   T₀=x, T₁=L̃x, T_k = 2 L̃ T_{k−1} − T_{k−2}.
class Cheby : public GnnModel {
 public:
  Cheby(int64_t in_dim, int64_t num_classes, const GnnConfig& config,
        Rng& rng);

  Variable Forward(const GraphOperators& g, const Variable& x, bool training,
                   Rng& rng) override;

  OperatorKind operator_kind() const override {
    return OperatorKind::kSymNoLoop;
  }

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  Variable Layer(const GraphOperators& g, const Variable& x,
                 const std::vector<std::unique_ptr<Linear>>& weights);

  int64_t order_;
  float dropout_;
  std::vector<std::unique_ptr<Linear>> layer1_;  // K+1 filters.
  std::vector<std::unique_ptr<Linear>> layer2_;
};

}  // namespace mcond

#endif  // MCOND_NN_CHEBY_H_
