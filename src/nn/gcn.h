#ifndef MCOND_NN_GCN_H_
#define MCOND_NN_GCN_H_

#include "nn/linear.h"
#include "nn/module.h"

namespace mcond {

/// Two-layer graph convolutional network (Kipf & Welling, 2017):
/// logits = Â ReLU(Â X W₁) W₂, Eq. (1) of the paper.
class Gcn : public GnnModel {
 public:
  Gcn(int64_t in_dim, int64_t num_classes, const GnnConfig& config, Rng& rng);

  Variable Forward(const GraphOperators& g, const Variable& x, bool training,
                   Rng& rng) override;

  OperatorKind operator_kind() const override {
    return OperatorKind::kGcnNorm;
  }

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  float dropout_;
  Linear layer1_;
  Linear layer2_;
};

}  // namespace mcond

#endif  // MCOND_NN_GCN_H_
