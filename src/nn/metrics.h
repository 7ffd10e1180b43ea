#ifndef MCOND_NN_METRICS_H_
#define MCOND_NN_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/tensor.h"

namespace mcond {

/// Fraction of rows of `logits` whose argmax equals the label. Labels of -1
/// (unlabeled) are skipped.
double AccuracyFromLogits(const Tensor& logits,
                          const std::vector<int64_t>& labels);

/// n×C one-hot encoding; rows with label -1 are all-zero.
Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes);

/// Mean and (population) standard deviation of a sample; used for the
/// "mean ± std over 5 seeds" reporting the paper uses.
struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};
MeanStd Summarize(const std::vector<double>& values);

}  // namespace mcond

#endif  // MCOND_NN_METRICS_H_
