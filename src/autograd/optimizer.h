#ifndef MCOND_AUTOGRAD_OPTIMIZER_H_
#define MCOND_AUTOGRAD_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"

namespace mcond {

/// Adam (Kingma & Ba) with bias correction and optional L2 weight decay over
/// a fixed parameter list. The paper trains everything with Adam; the
/// mapping matrix uses lr=0.1.
class AdamOptimizer {
 public:
  AdamOptimizer(std::vector<Variable> params, float lr,
                float weight_decay = 0.0f, float beta1 = 0.9f,
                float beta2 = 0.999f, float eps = 1e-8f);

  AdamOptimizer(const AdamOptimizer&) = delete;
  AdamOptimizer& operator=(const AdamOptimizer&) = delete;

  /// Applies one update using each parameter's accumulated gradient, then
  /// clears the gradients. Parameters with no accumulated gradient (not
  /// reached by the last Backward) are skipped.
  void Step();

  void ZeroGrad() { ZeroGradAll(params_); }

 private:
  std::vector<Variable> params_;
  float lr_;
  float weight_decay_;
  float beta1_;
  float beta2_;
  float eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;  // First-moment estimates, one per parameter.
  std::vector<Tensor> v_;  // Second-moment estimates.
};

}  // namespace mcond

#endif  // MCOND_AUTOGRAD_OPTIMIZER_H_
