#ifndef MCOND_CONDENSE_MAPPING_H_
#define MCOND_CONDENSE_MAPPING_H_

#include <vector>

#include "nn/module.h"

namespace mcond {

/// Hyper-parameters of the mapping matrix M.
struct MappingConfig {
  /// Class-aware initialization constants (§III-E): raw entries start at
  /// `init_same_class` when original node i and synthetic node j share a
  /// label, `init_diff_class` otherwise. (The paper uses "a constant, e.g.
  /// 1" vs 0; a wider gap speeds convergence at our reduced epoch budget —
  /// bench_fig5_mapping ablates initialization.)
  float init_same_class = 2.0f;
  float init_diff_class = -2.0f;
  /// ε of Eq. (15): suppresses sub-threshold weights after row
  /// normalization.
  float epsilon = 1e-5f;
};

/// The trainable one-to-many node mapping M ∈ R^{N×N'} (§II-C). The raw
/// parameter is unconstrained; the deployed mapping is its row
/// normalization (Eq. 15):
///   M_i ← ReLU( σ(M_i) / Σ_j σ(M_{ij}) − ε ),
/// which keeps rows non-negative, roughly stochastic, and numerically
/// stable. After training, MCondResult::Sparsify (Eq. 14) thresholds the
/// normalized matrix into the CSR form used at serving time.
class MappingMatrix : public Module {
 public:
  MappingMatrix(int64_t num_original, int64_t num_synthetic,
                const MappingConfig& config);

  int64_t num_original() const { return raw_->rows(); }
  int64_t num_synthetic() const { return raw_->cols(); }

  /// Class-aware initialization. Original nodes without a label (-1) start
  /// neutral (0) against every synthetic node.
  void InitializeClassAware(const std::vector<int64_t>& original_labels,
                            const std::vector<int64_t>& synthetic_labels);

  /// Random baseline initialization (Fig. 5(c) comparison).
  void InitializeRandom(Rng& rng);

  /// Eq. (15) as a differentiable expression over the raw parameter: one
  /// taped op (ops::SigmoidRowNormalize). Its forward is one row-parallel
  /// pass that allocates the N×N' result plus the saved σ (N×N') and 1/s
  /// (N×1); its backward is one pass that allocates ∂/∂raw (N×N') and
  /// moves it into the parameter's gradient.
  Variable Normalized() const;

  /// Eq. (15) evaluated eagerly (no tape) by the same row kernel, so its
  /// bits equal Normalized()'s value; allocates only the N×N' result.
  Tensor NormalizedTensor() const;

  std::vector<Variable> Parameters() const override;
  void ResetParameters(Rng& rng) override;

  const Variable& raw() const { return raw_; }

 private:
  Variable raw_;
  MappingConfig config_;
};

}  // namespace mcond

#endif  // MCOND_CONDENSE_MAPPING_H_
