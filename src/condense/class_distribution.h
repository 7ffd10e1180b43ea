#ifndef MCOND_CONDENSE_CLASS_DISTRIBUTION_H_
#define MCOND_CONDENSE_CLASS_DISTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/tensor.h"
#include "graph/graph.h"

namespace mcond {

/// Predefines the synthetic labels Y' (§III-A): class counts proportional
/// to the labeled-class distribution of the original graph, each class
/// getting at least one node, totalling exactly `num_synthetic`. Labels are
/// grouped by class (0...0, 1...1, ...), which the mapping visualization of
/// Fig. 5 relies on.
std::vector<int64_t> AllocateSyntheticLabels(const Graph& original,
                                             int64_t num_synthetic);

/// Same allocation from per-class labeled counts alone — the form the
/// out-of-core path uses (it never holds a Graph). The Graph overload
/// delegates here.
std::vector<int64_t> AllocateSyntheticLabels(
    const std::vector<int64_t>& class_counts, int64_t num_synthetic);

/// Initializes X' by sampling, for each synthetic node, a labeled original
/// node of the same class (from `features`, `labels` and `num_classes`) and
/// copying its features with small Gaussian jitter (the GCond
/// initialization).
Tensor InitializeSyntheticFeatures(const Tensor& features,
                                   const std::vector<int64_t>& labels,
                                   int64_t num_classes,
                                   const std::vector<int64_t>& synthetic_labels,
                                   Rng& rng);

}  // namespace mcond

#endif  // MCOND_CONDENSE_CLASS_DISTRIBUTION_H_
