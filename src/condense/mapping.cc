#include "condense/mapping.h"

#include "core/tensor_ops.h"

namespace mcond {

MappingMatrix::MappingMatrix(int64_t num_original, int64_t num_synthetic,
                             const MappingConfig& config)
    : config_(config) {
  MCOND_CHECK_GT(num_original, 0);
  MCOND_CHECK_GT(num_synthetic, 0);
  raw_ = MakeVariable(Tensor(num_original, num_synthetic),
                      /*requires_grad=*/true);
}

void MappingMatrix::InitializeClassAware(
    const std::vector<int64_t>& original_labels,
    const std::vector<int64_t>& synthetic_labels) {
  MCOND_CHECK_EQ(static_cast<int64_t>(original_labels.size()),
                 raw_->rows());
  MCOND_CHECK_EQ(static_cast<int64_t>(synthetic_labels.size()),
                 raw_->cols());
  Tensor& m = raw_->mutable_value();
  for (int64_t i = 0; i < m.rows(); ++i) {
    const int64_t yi = original_labels[static_cast<size_t>(i)];
    float* row = m.RowData(i);
    for (int64_t j = 0; j < m.cols(); ++j) {
      if (yi < 0) {
        row[j] = 0.0f;  // Unlabeled: neutral against every synthetic node.
      } else {
        row[j] = synthetic_labels[static_cast<size_t>(j)] == yi
                     ? config_.init_same_class
                     : config_.init_diff_class;
      }
    }
  }
  raw_->ZeroGrad();
}

void MappingMatrix::InitializeRandom(Rng& rng) {
  raw_->mutable_value() =
      rng.NormalTensor(raw_->rows(), raw_->cols(), 0.0f, 0.5f);
  raw_->ZeroGrad();
}

Variable MappingMatrix::Normalized() const {
  return ops::SigmoidRowNormalize(raw_, config_.epsilon);
}

Tensor MappingMatrix::NormalizedTensor() const {
  return SigmoidRowNormalize(raw_->value(), config_.epsilon);
}

CsrMatrix MappingMatrix::Sparsify(float delta) const {
  return CsrMatrix::FromDense(NormalizedTensor(), /*drop_tol=*/0.0f)
      .Thresholded(delta);
}

std::vector<Variable> MappingMatrix::Parameters() const { return {raw_}; }

void MappingMatrix::ResetParameters(Rng& rng) { InitializeRandom(rng); }

}  // namespace mcond
