#ifndef MCOND_CORE_CSR_MATRIX_H_
#define MCOND_CORE_CSR_MATRIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tensor.h"

namespace mcond {

/// A single (row, col, value) entry used to assemble sparse matrices.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  float value = 0.0f;
};

/// Non-owning view of rows [row_begin, row_end) of a CSR matrix: the one
/// shape every sparse row kernel takes. `row_ptr` has NumRows() + 1 entries
/// and indexes `col_idx`/`values` directly, so matrix row r is local row
/// r - row_begin. CsrMatrix::View() covers a whole matrix with its own
/// arrays; a pinned ShardedCsr segment covers its row range with segment-
/// local arrays (row_ptr[0] == 0, `index` = the segment's number).
struct CsrView {
  int64_t index = 0;
  int64_t row_begin = 0;
  int64_t row_end = 0;
  int64_t nnz = 0;
  const int64_t* row_ptr = nullptr;
  const int32_t* col_idx = nullptr;
  const float* values = nullptr;

  int64_t NumRows() const { return row_end - row_begin; }
  /// Rows [begin, end) of this view (matrix row numbers, inside this view).
  CsrView Rows(int64_t begin, int64_t end) const {
    const int64_t* p = row_ptr + (begin - row_begin);
    return {index, begin, end, p[end - begin] - p[0], p, col_idx, values};
  }
};

/// y = a · x over the rows of `a`: matrix row r goes to y + (r -
/// a.row_begin) · x.cols(), as Σ_k values[k] · x[col_idx[k]] in ascending k,
/// multiply-then-add. Every element of those rows is written, so `y` may
/// start uninitialized. Row-parallel, dispatching to the AVX2 gather kernel
/// (bit-identical to the scalar loop), so the bits depend on neither the
/// thread count, the SIMD tier nor how a matrix is split into views. The
/// one SpMM row loop: CsrMatrix::SpMM, SpMMTransposed and the streamed
/// segment passes (graph/sharded_ops.h) all run it.
void SpMM(const CsrView& a, const Tensor& x, float* y,
          const char* trace_name = nullptr);

/// out[r - a.row_begin] = the sum of row r's stored values, accumulated in
/// double in ascending k and rounded once. Row-parallel.
void RowSums(const CsrView& a, float* out, const char* trace_name = nullptr);

/// Compressed-sparse-row matrix of float. This is the adjacency
/// representation used everywhere: the original graph A, the sparsified
/// synthetic adjacency A', the sparsified mapping M, and the composed
/// block matrices of Eq. (3)/(11).
///
/// Invariants: row_ptr has rows+1 entries, is non-decreasing, and column
/// indices within each row are strictly increasing (duplicates are summed
/// during construction).
class CsrMatrix {
 public:
  /// Constructs an empty 0×0 matrix.
  CsrMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  /// Builds from possibly-unsorted triplets; duplicate (row, col) pairs are
  /// summed, and explicit zeros produced by summation are kept (they still
  /// occupy storage, mirroring real sparse libraries).
  static CsrMatrix FromTriplets(int64_t rows, int64_t cols,
                                std::vector<Triplet> triplets);

  /// Adopts already-assembled CSR arrays without any sort or merge. The
  /// arrays must satisfy the class invariants (row_ptr non-decreasing with
  /// rows+1 entries, columns strictly ascending within each row); with
  /// `validate` they are checked in O(nnz), hot paths that construct the
  /// arrays canonically (the serving session) pass false. Debug builds
  /// validate regardless — a non-monotone row_ptr accepted here would
  /// silently corrupt every downstream kernel. Together with TakeParts this
  /// lets a caller recycle the same buffers across rebuilds without
  /// reallocating.
  static CsrMatrix FromParts(int64_t rows, int64_t cols,
                             std::vector<int64_t> row_ptr,
                             std::vector<int32_t> col_idx,
                             std::vector<float> values, bool validate = true);

  /// Moves the CSR arrays out into the given vectors (reusing their
  /// capacity) and leaves this matrix in the moved-from state (0×0 with an
  /// EMPTY row_ptr — valid only for assignment or destruction, like any
  /// moved-from object). The inverse of FromParts, used to reclaim buffers
  /// for in-place rebuilding without touching the heap.
  void TakeParts(std::vector<int64_t>* row_ptr, std::vector<int32_t>* col_idx,
                 std::vector<float>* values);

  /// n×n identity.
  static CsrMatrix Identity(int64_t n);

  /// Converts a dense tensor, dropping entries with |x| <= drop_tol.
  static CsrMatrix FromDense(const Tensor& dense, float drop_tol = 0.0f);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t Nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// Copy of this matrix with the same sparsity structure and the given
  /// values (size must equal Nnz()). O(nnz) with no re-sort — the fast
  /// path for normalization, which only rescales entries.
  CsrMatrix WithValues(std::vector<float> new_values) const;

  /// The whole matrix as a view (row_begin 0, the matrix's own arrays).
  CsrView View() const {
    return {0, 0, rows_, Nnz(), row_ptr_.data(), col_idx_.data(),
            values_.data()};
  }

  /// Number of stored entries in row r.
  int64_t RowNnz(int64_t r) const {
    return row_ptr_[static_cast<size_t>(r) + 1] -
           row_ptr_[static_cast<size_t>(r)];
  }

  /// Sum of stored values per row (weighted out-degree), as an n-vector.
  std::vector<float> RowSums() const;

  /// Y = this · X where X is dense. The core message-passing kernel.
  /// Row-parallel on the global thread pool; bit-identical to
  /// SpMMSerial at every thread count ON EVERY SIMD tier — the AVX2
  /// gather kernel preserves the ascending-k multiply-then-add order
  /// exactly (core/simd.h).
  Tensor SpMM(const Tensor& x) const;

  /// Y = thisᵀ · X: the SpMM row kernel over a lazily built (and cached)
  /// Transpose(), so there are no scatter races and each output element
  /// keeps the serial ascending-source-row accumulation order —
  /// bit-identical to SpMMTransposedSerial at every thread count. The cache
  /// makes repeated backward passes O(nnz·d) with no rebuild; building is
  /// not safe to race from two threads' FIRST calls on the same matrix
  /// (kernels are dispatched from one thread here).
  Tensor SpMMTransposed(const Tensor& x) const;

  /// Retained single-threaded reference kernels (tests, bench baselines).
  Tensor SpMMSerial(const Tensor& x) const;
  Tensor SpMMTransposedSerial(const Tensor& x) const;

  /// Transpose by counting sort: row c lists the source rows of column c in
  /// ascending order, with their values.
  CsrMatrix Transpose() const;

  /// C = A · B for two sparse matrices (SpGEMM). Used at serving time to
  /// convert inductive-node links via the mapping: aM in Eq. (11).
  static CsrMatrix Multiply(const CsrMatrix& a, const CsrMatrix& b);

  /// Dense copy; only for small matrices and tests.
  Tensor ToDense() const;

  /// this with any entries whose value < threshold removed (Eq. 14
  /// sparsification semantics: keep x if x >= threshold).
  CsrMatrix Thresholded(float threshold) const;

  /// Bytes needed to store the matrix: values + column indices + row
  /// pointers. This is the `||A||_0` term of the paper's memory model.
  int64_t StorageBytes() const;

  /// True if (r, c) is stored (regardless of value).
  bool HasEntry(int64_t r, int64_t c) const;

 private:
  /// Transpose(), built lazily by SpMMTransposed. The arrays never change
  /// after construction (TakeParts empties the matrix and drops it), so
  /// copies share it.
  const CsrMatrix& CachedTranspose() const;

  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;
  std::vector<int32_t> col_idx_;
  std::vector<float> values_;
  mutable std::shared_ptr<const CsrMatrix> transpose_;
};

}  // namespace mcond

#endif  // MCOND_CORE_CSR_MATRIX_H_
