#include "condense/adjacency_generator.h"

namespace mcond {

AdjacencyGenerator::AdjacencyGenerator(int64_t feature_dim,
                                       int64_t hidden_dim, Rng& rng)
    : feature_dim_(feature_dim) {
  mlp_ = std::make_unique<Mlp>(
      std::vector<int64_t>{2 * feature_dim, hidden_dim, 1},
      /*dropout=*/0.0f, rng);
}

Variable AdjacencyGenerator::Forward(const Variable& synthetic_features) const {
  const int64_t n = synthetic_features->rows();
  const int64_t d = feature_dim_;
  MCOND_CHECK_EQ(synthetic_features->cols(), d);
  const std::vector<std::unique_ptr<Linear>>& layers = mlp_->layers();
  // First layer, factored (see the class comment). b₁ rides on u, so it is
  // added N' times rather than N'² times.
  const Linear& first = *layers.front();
  Variable u = ops::AddRowBroadcast(
      ops::MatMul(synthetic_features, ops::SliceRows(first.weight(), 0, d)),
      first.bias());
  Variable v = ops::MatMul(synthetic_features,
                           ops::SliceRows(first.weight(), d, 2 * d));
  // Row p = i*n + j holds the first-layer output of pair (i, j).
  Variable h = ops::PairSum(u, v);
  for (size_t l = 1; l < layers.size(); ++l) {
    h = layers[l]->Forward(ops::Relu(h));
  }
  Variable score_matrix = ops::Reshape(h, n, n);  // (n², 1) → (n, n)
  Variable symmetric = ops::Scale(
      ops::Add(score_matrix, ops::Transpose(score_matrix)), 0.5f);
  return ops::Sigmoid(symmetric);
}

std::vector<Variable> AdjacencyGenerator::Parameters() const {
  return mlp_->Parameters();
}

void AdjacencyGenerator::ResetParameters(Rng& rng) {
  mlp_->ResetParameters(rng);
}

}  // namespace mcond
