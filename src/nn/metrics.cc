#include "nn/metrics.h"

#include <cmath>

#include "core/logging.h"
#include "core/tensor_ops.h"

namespace mcond {

double AccuracyFromLogits(const Tensor& logits,
                          const std::vector<int64_t>& labels) {
  MCOND_CHECK_EQ(logits.rows(), static_cast<int64_t>(labels.size()));
  const std::vector<int64_t> pred = ArgmaxRows(logits);
  int64_t correct = 0, total = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0) continue;
    ++total;
    if (pred[i] == labels[i]) ++correct;
  }
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes) {
  Tensor out(static_cast<int64_t>(labels.size()), num_classes);
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= 0) {
      MCOND_CHECK_LT(labels[i], num_classes);
      out.At(static_cast<int64_t>(i), labels[i]) = 1.0f;
    }
  }
  return out;
}

MeanStd Summarize(const std::vector<double>& values) {
  MeanStd out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) sq += (v - out.mean) * (v - out.mean);
  out.std = std::sqrt(sq / static_cast<double>(values.size()));
  return out;
}

}  // namespace mcond
