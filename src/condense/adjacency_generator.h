#ifndef MCOND_CONDENSE_ADJACENCY_GENERATOR_H_
#define MCOND_CONDENSE_ADJACENCY_GENERATOR_H_

#include <memory>

#include "nn/linear.h"
#include "nn/module.h"

namespace mcond {

/// The MLP_Φ adjacency generator of Eq. (6): every synthetic edge weight is
/// the symmetrized, sigmoid-squashed score of the concatenated endpoint
/// features,
///   A'_{ij} = σ( (MLP_Φ([x'_i; x'_j]) + MLP_Φ([x'_j; x'_i])) / 2 ),
/// so the synthetic structure is a *function of* the synthetic features and
/// both train jointly through the condensation losses.
///
/// MLP_Φ's first layer is linear, so it is evaluated factored: with the
/// single 2d×h weight W₁ = [W_a ; W_b],
///   [x'_i; x'_j]·W₁ + b₁ = (X'W_a + b₁)_i + (X'W_b)_j,
/// two N'×d×h products and one ops::PairSum. The N'²×2d pair matrix is
/// never built. This reassociates the first layer's sum, so its bits differ
/// from the literal concatenated form (tests/condense_units_test.cc keeps
/// that form as the oracle and bounds the difference).
class AdjacencyGenerator : public Module {
 public:
  AdjacencyGenerator(int64_t feature_dim, int64_t hidden_dim, Rng& rng);

  /// Dense N'×N' symmetric adjacency with entries in (0, 1). The diagonal
  /// is computed like any other pair; downstream normalization adds the
  /// self-loop.
  Variable Forward(const Variable& synthetic_features) const;

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

 private:
  int64_t feature_dim_;
  std::unique_ptr<Mlp> mlp_;
};

}  // namespace mcond

#endif  // MCOND_CONDENSE_ADJACENCY_GENERATOR_H_
