#include "core/csr_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/kernel_stats.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/simd_kernels.h"

namespace mcond {

using internal::KernelScope;

void SpMM(const CsrView& a, const Tensor& x, float* y,
          const char* trace_name) {
  const int64_t d = x.cols();
  const bool use_avx2 = simd::UseAvx2();
  // ~64K float-ops per chunk even on very sparse rows.
  const int64_t grain = GrainFromCost(
      2 * d * (a.nnz / std::max<int64_t>(a.NumRows(), 1) + 1));
  ParallelFor(
      0, a.NumRows(), grain,
      [&](int64_t r0, int64_t r1) {
        if (use_avx2) {
          simd::Avx2SpmmRows(a.row_ptr, a.col_idx, a.values, x.data(), y, d,
                             r0, r1);
          return;
        }
        for (int64_t r = r0; r < r1; ++r) {
          float* yrow = y + r * d;
          for (int64_t j = 0; j < d; ++j) yrow[j] = 0.0f;
          for (int64_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
            const float v = a.values[k];
            const float* xrow = x.RowData(a.col_idx[k]);
            for (int64_t j = 0; j < d; ++j) yrow[j] += v * xrow[j];
          }
        }
      },
      trace_name);
}

void RowSums(const CsrView& a, float* out, const char* trace_name) {
  ParallelFor(
      0, a.NumRows(),
      GrainFromCost(2 * (a.nnz / std::max<int64_t>(a.NumRows(), 1) + 1)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          double acc = 0.0;
          for (int64_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
            acc += a.values[k];
          }
          out[r] = static_cast<float>(acc);
        }
      },
      trace_name);
}

CsrMatrix CsrMatrix::FromTriplets(int64_t rows, int64_t cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    MCOND_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols)
        << "triplet (" << t.row << "," << t.col << ") out of " << rows << "x"
        << cols;
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  while (i < triplets.size()) {
    const int64_t r = triplets[i].row;
    const int64_t c = triplets[i].col;
    float v = triplets[i].value;
    size_t j = i + 1;
    while (j < triplets.size() && triplets[j].row == r &&
           triplets[j].col == c) {
      v += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(static_cast<int32_t>(c));
    m.values_.push_back(v);
    m.row_ptr_[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(m.col_idx_.size());
    i = j;
  }
  // Rows with no entries inherit the previous row's end offset.
  for (size_t r = 1; r < m.row_ptr_.size(); ++r) {
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  }
  return m;
}

CsrMatrix CsrMatrix::FromParts(int64_t rows, int64_t cols,
                               std::vector<int64_t> row_ptr,
                               std::vector<int32_t> col_idx,
                               std::vector<float> values, bool validate) {
#ifndef NDEBUG
  // Debug builds always validate: a caller passing validate=false asserts
  // the arrays are canonical, and a non-monotone row_ptr or unsorted column
  // slipping through would silently corrupt every downstream kernel (binary
  // searches, SpMM, the transposed view). Release keeps the fast path.
  validate = true;
#endif
  if (validate) {
    MCOND_CHECK_GE(rows, 0);
    MCOND_CHECK_GE(cols, 0);
    MCOND_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), rows + 1)
        << "row_ptr must have rows+1 entries";
    MCOND_CHECK_EQ(row_ptr[0], 0);
    MCOND_CHECK_EQ(row_ptr[static_cast<size_t>(rows)],
                   static_cast<int64_t>(col_idx.size()));
    MCOND_CHECK_EQ(col_idx.size(), values.size());
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t begin = row_ptr[static_cast<size_t>(r)];
      const int64_t end = row_ptr[static_cast<size_t>(r) + 1];
      MCOND_CHECK_LE(begin, end) << "row_ptr must be non-decreasing at " << r;
      for (int64_t k = begin; k < end; ++k) {
        const int32_t c = col_idx[static_cast<size_t>(k)];
        MCOND_CHECK(c >= 0 && c < cols)
            << "column " << c << " out of range in row " << r;
        MCOND_CHECK(k == begin || col_idx[static_cast<size_t>(k) - 1] < c)
            << "columns must be strictly ascending in row " << r;
      }
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

void CsrMatrix::TakeParts(std::vector<int64_t>* row_ptr,
                          std::vector<int32_t>* col_idx,
                          std::vector<float>* values) {
  *row_ptr = std::move(row_ptr_);
  *col_idx = std::move(col_idx_);
  *values = std::move(values_);
  // Deliberately moved-from (row_ptr_ empty rather than {0}): the matrix is
  // only valid for assignment or destruction, exactly like the source of a
  // move. Re-seeding row_ptr_ would heap-allocate, defeating the
  // zero-allocation serving loop this API exists for.
  rows_ = 0;
  cols_ = 0;
  row_ptr_.clear();
  col_idx_.clear();
  values_.clear();
  transpose_.reset();
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<Triplet> t;
  t.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) t.push_back({i, i, 1.0f});
  return FromTriplets(n, n, std::move(t));
}

// A row-major scan emits entries already in CSR order, with no duplicate
// coordinates, so FromDense and Thresholded append rows directly: the same
// matrix FromTriplets builds, without the triplet copy and its sort.
CsrMatrix CsrMatrix::FromDense(const Tensor& dense, float drop_tol) {
  CsrMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(static_cast<size_t>(m.rows_) + 1, 0);
  for (int64_t i = 0; i < m.rows_; ++i) {
    const float* row = dense.RowData(i);
    for (int64_t j = 0; j < m.cols_; ++j) {
      if (std::fabs(row[j]) > drop_tol) {
        m.col_idx_.push_back(static_cast<int32_t>(j));
        m.values_.push_back(row[j]);
      }
    }
    m.row_ptr_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(m.col_idx_.size());
  }
  return m;
}

float CsrMatrix::At(int64_t r, int64_t c) const {
  MCOND_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  const int64_t begin = row_ptr_[static_cast<size_t>(r)];
  const int64_t end = row_ptr_[static_cast<size_t>(r) + 1];
  const auto first = col_idx_.begin() + begin;
  const auto last = col_idx_.begin() + end;
  const auto it = std::lower_bound(first, last, static_cast<int32_t>(c));
  if (it != last && *it == c) {
    return values_[static_cast<size_t>(it - col_idx_.begin())];
  }
  return 0.0f;
}

bool CsrMatrix::HasEntry(int64_t r, int64_t c) const {
  const int64_t begin = row_ptr_[static_cast<size_t>(r)];
  const int64_t end = row_ptr_[static_cast<size_t>(r) + 1];
  const auto first = col_idx_.begin() + begin;
  const auto last = col_idx_.begin() + end;
  return std::binary_search(first, last, static_cast<int32_t>(c));
}

std::vector<float> CsrMatrix::RowSums() const {
  std::vector<float> sums(static_cast<size_t>(rows_));
  mcond::RowSums(View(), sums.data(), "core.row_sums");
  return sums;
}

Tensor CsrMatrix::SpMM(const Tensor& x) const {
  MCOND_CHECK_EQ(cols_, x.rows()) << "SpMM shape mismatch";
  KernelScope scope("core.spmm", "mcond.kernel.spmm_us",
                    2 * Nnz() * x.cols());
  Tensor y = Tensor::Uninitialized(rows_, x.cols());
  mcond::SpMM(View(), x, y.data(), "core.spmm");
  return y;
}

const CsrMatrix& CsrMatrix::CachedTranspose() const {
  if (!transpose_) transpose_ = std::make_shared<const CsrMatrix>(Transpose());
  return *transpose_;
}

Tensor CsrMatrix::SpMMTransposed(const Tensor& x) const {
  MCOND_CHECK_EQ(rows_, x.rows()) << "SpMMTransposed shape mismatch";
  KernelScope scope("core.spmm_t", "mcond.kernel.spmm_t_us",
                    2 * Nnz() * x.cols());
  const CsrMatrix& t = CachedTranspose();
  Tensor y = Tensor::Uninitialized(cols_, x.cols());
  mcond::SpMM(t.View(), x, y.data(), "core.spmm_t");
  return y;
}

Tensor CsrMatrix::SpMMSerial(const Tensor& x) const {
  MCOND_CHECK_EQ(cols_, x.rows()) << "SpMM shape mismatch";
  Tensor y(rows_, x.cols());
  const int64_t d = x.cols();
  for (int64_t r = 0; r < rows_; ++r) {
    float* yrow = y.RowData(r);
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r) + 1]; ++k) {
      const float v = values_[static_cast<size_t>(k)];
      const float* xrow = x.RowData(col_idx_[static_cast<size_t>(k)]);
      for (int64_t j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

Tensor CsrMatrix::SpMMTransposedSerial(const Tensor& x) const {
  MCOND_CHECK_EQ(rows_, x.rows()) << "SpMMTransposed shape mismatch";
  Tensor y(cols_, x.cols());
  const int64_t d = x.cols();
  for (int64_t r = 0; r < rows_; ++r) {
    const float* xrow = x.RowData(r);
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r) + 1]; ++k) {
      const float v = values_[static_cast<size_t>(k)];
      float* yrow = y.RowData(col_idx_[static_cast<size_t>(k)]);
      for (int64_t j = 0; j < d; ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

CsrMatrix CsrMatrix::Transpose() const {
  MCOND_CHECK_LE(rows_, std::numeric_limits<int32_t>::max());
  std::vector<int64_t> t_ptr(static_cast<size_t>(cols_) + 1, 0);
  for (const int32_t c : col_idx_) ++t_ptr[static_cast<size_t>(c) + 1];
  for (size_t c = 1; c < t_ptr.size(); ++c) t_ptr[c] += t_ptr[c - 1];
  std::vector<int32_t> t_col(values_.size());
  std::vector<float> t_val(values_.size());
  // Walking rows in ascending order fills each column's slice in ascending
  // source-row order: canonical CSR, and the order SpMMTransposed's
  // determinism rests on.
  std::vector<int64_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r) + 1]; ++k) {
      const size_t c = static_cast<size_t>(col_idx_[static_cast<size_t>(k)]);
      const size_t pos = static_cast<size_t>(cursor[c]++);
      t_col[pos] = static_cast<int32_t>(r);
      t_val[pos] = values_[static_cast<size_t>(k)];
    }
  }
  return FromParts(cols_, rows_, std::move(t_ptr), std::move(t_col),
                   std::move(t_val), /*validate=*/false);
}

CsrMatrix CsrMatrix::Multiply(const CsrMatrix& a, const CsrMatrix& b) {
  MCOND_CHECK_EQ(a.cols(), b.rows()) << "SpGEMM shape mismatch";
  // Row-by-row with a dense accumulator over b's columns; fine because the
  // right operand in our workloads (mapping M, synthetic adjacency A') has
  // few columns.
  std::vector<float> acc(static_cast<size_t>(b.cols()), 0.0f);
  std::vector<bool> used(static_cast<size_t>(b.cols()), false);
  std::vector<Triplet> out;
  for (int64_t r = 0; r < a.rows(); ++r) {
    std::vector<int64_t> touched;
    for (int64_t ka = a.row_ptr_[static_cast<size_t>(r)];
         ka < a.row_ptr_[static_cast<size_t>(r) + 1]; ++ka) {
      const float av = a.values_[static_cast<size_t>(ka)];
      const int64_t mid = a.col_idx_[static_cast<size_t>(ka)];
      for (int64_t kb = b.row_ptr_[static_cast<size_t>(mid)];
           kb < b.row_ptr_[static_cast<size_t>(mid) + 1]; ++kb) {
        const int64_t c = b.col_idx_[static_cast<size_t>(kb)];
        if (!used[static_cast<size_t>(c)]) {
          used[static_cast<size_t>(c)] = true;
          touched.push_back(c);
        }
        acc[static_cast<size_t>(c)] += av * b.values_[static_cast<size_t>(kb)];
      }
    }
    for (int64_t c : touched) {
      out.push_back({r, c, acc[static_cast<size_t>(c)]});
      acc[static_cast<size_t>(c)] = 0.0f;
      used[static_cast<size_t>(c)] = false;
    }
  }
  return FromTriplets(a.rows(), b.cols(), std::move(out));
}

Tensor CsrMatrix::ToDense() const {
  Tensor d(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r) + 1]; ++k) {
      d.At(r, col_idx_[static_cast<size_t>(k)]) =
          values_[static_cast<size_t>(k)];
    }
  }
  return d;
}

CsrMatrix CsrMatrix::WithValues(std::vector<float> new_values) const {
  MCOND_CHECK_EQ(static_cast<int64_t>(new_values.size()), Nnz());
  CsrMatrix out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.row_ptr_ = row_ptr_;
  out.col_idx_ = col_idx_;
  out.values_ = std::move(new_values);
  return out;
}

CsrMatrix CsrMatrix::Scaled(float s) const {
  std::vector<float> vals(values_);
  for (float& v : vals) v *= s;
  return WithValues(std::move(vals));
}

CsrMatrix CsrMatrix::Thresholded(float threshold) const {
  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.assign(static_cast<size_t>(rows_) + 1, 0);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[static_cast<size_t>(r)];
         k < row_ptr_[static_cast<size_t>(r) + 1]; ++k) {
      const float v = values_[static_cast<size_t>(k)];
      if (v >= threshold) {
        m.col_idx_.push_back(col_idx_[static_cast<size_t>(k)]);
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(m.col_idx_.size());
  }
  return m;
}

int64_t CsrMatrix::StorageBytes() const {
  return static_cast<int64_t>(values_.size() * sizeof(float)) +
         static_cast<int64_t>(col_idx_.size() * sizeof(int32_t)) +
         static_cast<int64_t>(row_ptr_.size() * sizeof(int64_t));
}

}  // namespace mcond
