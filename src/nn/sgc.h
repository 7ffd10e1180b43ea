#ifndef MCOND_NN_SGC_H_
#define MCOND_NN_SGC_H_

#include "nn/linear.h"
#include "nn/module.h"

namespace mcond {

/// Simple Graph Convolution (Wu et al., 2019): logits = Â^K X W. Same
/// convolution kernel as GCN but with the nonlinearities removed, which is
/// why the paper adopts it for condensation — training reduces to logistic
/// regression on propagated features.
class Sgc : public GnnModel {
 public:
  Sgc(int64_t in_dim, int64_t num_classes, const GnnConfig& config, Rng& rng);

  Variable Forward(const GraphOperators& g, const Variable& x, bool training,
                   Rng& rng) override;

  OperatorKind operator_kind() const override {
    return OperatorKind::kGcnNorm;
  }

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  int64_t k_;
  float dropout_;
  Linear linear_;
};

}  // namespace mcond

#endif  // MCOND_NN_SGC_H_
