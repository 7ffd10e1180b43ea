#ifndef MCOND_NN_LINEAR_H_
#define MCOND_NN_LINEAR_H_

#include <vector>

#include "nn/module.h"

namespace mcond {

/// Fully connected layer y = xW + b (bias optional).
class Linear : public Module {
 public:
  Linear(int64_t in_dim, int64_t out_dim, bool use_bias, Rng& rng);

  Variable Forward(const Variable& x) const;

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }
  const Variable& weight() const { return weight_; }
  /// Null when constructed without a bias.
  const Variable& bias() const { return bias_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  bool use_bias_;
  Variable weight_;
  Variable bias_;
};

/// Multi-layer perceptron with ReLU activations between layers and optional
/// dropout on hidden activations. APPNP's feature transform runs it through
/// Forward. The MLP_Φ adjacency generator (Eq. 6) owns one too but evaluates
/// its layers() itself: it factors the first, linear layer over the pair
/// concatenation, then applies ReLU and each remaining layer as Forward
/// would with dropout off.
class Mlp : public Module {
 public:
  /// dims = {in, hidden..., out}; at least {in, out}.
  Mlp(std::vector<int64_t> dims, float dropout, Rng& rng);

  Variable Forward(const Variable& x, bool training, Rng& rng) const;

  /// The dims.size() - 1 layers in order; layer l maps dims[l] → dims[l+1].
  const std::vector<std::unique_ptr<Linear>>& layers() const {
    return layers_;
  }

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  std::vector<int64_t> dims_;
  float dropout_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace mcond

#endif  // MCOND_NN_LINEAR_H_
