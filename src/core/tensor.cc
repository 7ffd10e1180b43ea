#include "core/tensor.h"

#include <cmath>

namespace mcond {

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

Tensor Tensor::Identity(int64_t n) {
  Tensor t(n, n);
  for (int64_t i = 0; i < n; ++i) t.At(i, i) = 1.0f;
  return t;
}

Tensor Tensor::Uninitialized(int64_t rows, int64_t cols) {
  MCOND_CHECK_GE(rows, 0);
  MCOND_CHECK_GE(cols, 0);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_.resize(static_cast<size_t>(rows * cols));  // default-init: no fill
  return t;
}

Tensor Tensor::FromVector(int64_t rows, int64_t cols,
                          std::vector<float> data) {
  MCOND_CHECK_EQ(static_cast<int64_t>(data.size()), rows * cols);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_.assign(data.begin(), data.end());
  return t;
}

void Tensor::Fill(float value) {
  for (float& x : data_) x = value;
}

bool Tensor::AllFinite() const {
  for (float x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace mcond
