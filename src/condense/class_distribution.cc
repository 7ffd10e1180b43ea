#include "condense/class_distribution.h"

#include <algorithm>

#include "core/tensor_ops.h"

namespace mcond {

std::vector<int64_t> AllocateSyntheticLabels(const Graph& original,
                                             int64_t num_synthetic) {
  return AllocateSyntheticLabels(original.ClassCounts(), num_synthetic);
}

std::vector<int64_t> AllocateSyntheticLabels(
    const std::vector<int64_t>& counts, int64_t num_synthetic) {
  const int64_t c = static_cast<int64_t>(counts.size());
  MCOND_CHECK_GE(num_synthetic, c)
      << "need at least one synthetic node per class";
  int64_t total_labeled = 0;
  for (int64_t k : counts) total_labeled += k;
  MCOND_CHECK_GT(total_labeled, 0) << "original graph has no labels";

  // Largest-remainder apportionment with a floor of one per class.
  std::vector<int64_t> alloc(static_cast<size_t>(c), 1);
  int64_t remaining = num_synthetic - c;
  std::vector<std::pair<double, int64_t>> fractions;
  for (int64_t k = 0; k < c; ++k) {
    const double share = static_cast<double>(counts[static_cast<size_t>(k)]) /
                         static_cast<double>(total_labeled) *
                         static_cast<double>(num_synthetic);
    const int64_t extra = std::max<int64_t>(
        0, static_cast<int64_t>(share) - 1);  // Floor already granted.
    const int64_t grant = std::min(extra, remaining);
    alloc[static_cast<size_t>(k)] += grant;
    remaining -= grant;
    fractions.push_back({share - static_cast<double>(static_cast<int64_t>(share)), k});
  }
  std::sort(fractions.rbegin(), fractions.rend());
  for (size_t i = 0; remaining > 0 && !fractions.empty(); ++i) {
    alloc[static_cast<size_t>(fractions[i % fractions.size()].second)] += 1;
    --remaining;
  }

  std::vector<int64_t> labels;
  labels.reserve(static_cast<size_t>(num_synthetic));
  for (int64_t k = 0; k < c; ++k) {
    for (int64_t i = 0; i < alloc[static_cast<size_t>(k)]; ++i) {
      labels.push_back(k);
    }
  }
  MCOND_CHECK_EQ(static_cast<int64_t>(labels.size()), num_synthetic);
  return labels;
}

Tensor InitializeSyntheticFeatures(const Tensor& features,
                                   const std::vector<int64_t>& labels,
                                   int64_t num_classes,
                                   const std::vector<int64_t>& synthetic_labels,
                                   Rng& rng) {
  std::vector<std::vector<int64_t>> by_class(static_cast<size_t>(num_classes));
  for (int64_t i = 0; i < features.rows(); ++i) {
    const int64_t y = labels[static_cast<size_t>(i)];
    if (y >= 0) by_class[static_cast<size_t>(y)].push_back(i);
  }
  Tensor x(static_cast<int64_t>(synthetic_labels.size()), features.cols());
  for (size_t s = 0; s < synthetic_labels.size(); ++s) {
    const int64_t y = synthetic_labels[s];
    const auto& pool = by_class[static_cast<size_t>(y)];
    MCOND_CHECK(!pool.empty()) << "class " << y << " has no labeled nodes";
    const int64_t src =
        pool[static_cast<size_t>(rng.RandInt(0, static_cast<int64_t>(pool.size()) - 1))];
    const float* row = features.RowData(src);
    float* dst = x.RowData(static_cast<int64_t>(s));
    for (int64_t j = 0; j < x.cols(); ++j) {
      dst[j] = row[j] + rng.Normal(0.0f, 0.01f);
    }
  }
  return x;
}

}  // namespace mcond
