#ifndef MCOND_CORE_TENSOR_H_
#define MCOND_CORE_TENSOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/logging.h"

namespace mcond {

namespace internal {

/// Allocation entry points for all Tensor storage (see tensor_arena.h).
/// When the calling thread has an active TensorArena, TensorAlloc bumps the
/// arena instead of touching the heap and TensorFree is a no-op for
/// arena-owned blocks; otherwise they are operator new/delete. Every call
/// that actually reaches the heap (including arena page growth) increments
/// the process-wide counter behind TensorHeapAllocCount(), which is how
/// tests assert the serving path's zero-allocation steady state.
void* TensorAlloc(size_t bytes);
void TensorFree(void* p) noexcept;
int64_t TensorHeapAllocCount();

/// std::allocator that default-initializes on valueless construct, so
/// vector::resize leaves float storage uninitialized instead of writing
/// zeros. Kernels use this (via Tensor::Uninitialized) for write-only
/// outputs, avoiding the alloc-zero-then-overwrite double pass. Storage is
/// obtained through TensorAlloc/TensorFree so a thread-local TensorArena
/// can serve it without heap traffic.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(TensorAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, size_t) noexcept { TensorFree(p); }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;  // default-init: no zeroing for float
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace internal

/// A dense row-major matrix of float. This is the single numeric container
/// used throughout the library: node feature matrices, GNN weights, mapping
/// matrices, gradients. Vectors are represented as 1×n or n×1 tensors.
///
/// Tensor is a value type: copyable, movable, cheap default construction.
/// Heavy math lives in tensor_ops.h; the class itself only owns storage and
/// provides indexed access plus a few O(size) conveniences.
class Tensor {
 public:
  /// Constructs an empty 0×0 tensor.
  Tensor() : rows_(0), cols_(0) {}

  /// Constructs a zero-filled rows×cols tensor.
  Tensor(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0f) {
    MCOND_CHECK_GE(rows, 0);
    MCOND_CHECK_GE(cols, 0);
  }

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  /// Named constructors.
  static Tensor Zeros(int64_t rows, int64_t cols) { return Tensor(rows, cols); }
  /// Zero-filled tensor with the same shape as `like` (kernel scratch and
  /// accumulator outputs).
  static Tensor ZeroedLike(const Tensor& like) {
    return Tensor(like.rows(), like.cols());
  }
  /// Allocated but NOT initialized — every entry must be written before it
  /// is read. For kernel outputs that overwrite the full tensor, this skips
  /// the zero-fill pass that Tensor(rows, cols) pays.
  static Tensor Uninitialized(int64_t rows, int64_t cols);
  static Tensor Full(int64_t rows, int64_t cols, float value);
  static Tensor Ones(int64_t rows, int64_t cols) {
    return Full(rows, cols, 1.0f);
  }
  static Tensor Identity(int64_t n);
  /// Takes ownership of `data`, which must have rows*cols entries laid out
  /// row-major.
  static Tensor FromVector(int64_t rows, int64_t cols,
                           std::vector<float> data);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& At(int64_t r, int64_t c) {
    MCOND_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float At(int64_t r, int64_t c) const {
    MCOND_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Raw row-major storage. Row r occupies [data() + r*cols, +cols).
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* RowData(int64_t r) { return data_.data() + r * cols_; }
  const float* RowData(int64_t r) const { return data_.data() + r * cols_; }

  /// Sets every entry to `value`.
  void Fill(float value);
  /// Sets every entry to zero.
  void SetZero() { Fill(0.0f); }

  /// True iff every entry is finite (no NaN/Inf). Used by tests.
  bool AllFinite() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float, internal::DefaultInitAllocator<float>> data_;
};

}  // namespace mcond

#endif  // MCOND_CORE_TENSOR_H_
