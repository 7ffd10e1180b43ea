#ifndef MCOND_NN_SAGE_H_
#define MCOND_NN_SAGE_H_

#include "nn/linear.h"
#include "nn/module.h"

namespace mcond {

/// Two-layer GraphSAGE (Hamilton et al., 2017) with the mean aggregator in
/// its full-batch form: h = ReLU(X W_self + D⁻¹(A+I) X W_neigh).
class GraphSage : public GnnModel {
 public:
  GraphSage(int64_t in_dim, int64_t num_classes, const GnnConfig& config,
            Rng& rng);

  Variable Forward(const GraphOperators& g, const Variable& x, bool training,
                   Rng& rng) override;

  OperatorKind operator_kind() const override {
    return OperatorKind::kRowNorm;
  }

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  float dropout_;
  Linear self1_;
  Linear neigh1_;
  Linear self2_;
  Linear neigh2_;
};

}  // namespace mcond

#endif  // MCOND_NN_SAGE_H_
