#include "core/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "core/kernel_stats.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/simd_kernels.h"

namespace mcond {

namespace {

using internal::KernelScope;

/// Cache tile sizes: kKc × kJc is the B panel a scalar GEMM task sweeps
/// (64 × 256 floats = 64 KiB, comfortably L2-resident).
constexpr int64_t kKc = 64;
constexpr int64_t kJc = 256;

/// Flat elementwise loops chunk at this many elements per task.
constexpr int64_t kElemGrain = int64_t{1} << 15;

/// The output of a GEMM: the AVX2 microkernel overwrites its rows (register
/// accumulation over the whole k range), so it takes an uninitialized
/// tensor; the scalar loop accumulates across k-tiles and needs zeros.
Tensor GemmOutput(int64_t m, int64_t n, bool use_avx2) {
  return use_avx2 ? Tensor::Uninitialized(m, n) : Tensor(m, n);
}

/// C = A · B into `c` from GemmOutput, row-parallel: the one body of all
/// three GEMM products, which pass a packed transpose where they need one.
/// Callers allocate `c` before packing: in the other order the bits are the
/// same, but the `condense` benchmark's peak RSS read about 2 MB higher.
/// Opens no KernelScope: each product counts itself once.
void GemmInto(const Tensor& a, const Tensor& b, Tensor& c, bool use_avx2,
              const char* trace_name) {
  const int64_t k = a.cols(), n = b.cols();
  ParallelFor(
      0, a.rows(), GrainFromCost(2 * k * n),
      [&](int64_t i0, int64_t i1) {
        if (use_avx2) {
          simd::Avx2GemmRows(a.data(), b.data(), c.data(), k, n, i0, i1);
          return;
        }
        // k-tiles ascend in the outermost loop so every element still
        // accumulates its products in ascending-k order from +0 (bit-exact
        // with all three serial:: products); the j-tile keeps the B panel
        // L2-resident.
        for (int64_t kt = 0; kt < k; kt += kKc) {
          const int64_t kt_end = std::min(k, kt + kKc);
          for (int64_t jt = 0; jt < n; jt += kJc) {
            const int64_t jlen = std::min(n, jt + kJc) - jt;
            for (int64_t i = i0; i < i1; ++i) {
              const float* arow = a.RowData(i);
              float* crow = c.RowData(i) + jt;
              // Eight running sums stay in registers across the k-tile, so
              // C is read and written once per tile rather than per step.
              int64_t j = 0;
              for (; j + 8 <= jlen; j += 8) {
                float acc[8];
                std::copy(crow + j, crow + j + 8, acc);
                for (int64_t p = kt; p < kt_end; ++p) {
                  const float av = arow[p];
                  const float* brow = b.RowData(p) + jt + j;
                  for (int q = 0; q < 8; ++q) acc[q] += av * brow[q];
                }
                std::copy(acc, acc + 8, crow + j);
              }
              for (; j < jlen; ++j) {
                float acc = crow[j];
                for (int64_t p = kt; p < kt_end; ++p) {
                  acc += arow[p] * b.RowData(p)[jt + j];
                }
                crow[j] = acc;
              }
            }
          }
        }
      },
      trace_name);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  KernelScope scope("core.matmul", "mcond.kernel.matmul_us", 2 * m * k * n);
  // SIMD tier captured once per call, outside the parallel loop.
  const bool use_avx2 = simd::UseAvx2();
  Tensor c = GemmOutput(m, n, use_avx2);
  GemmInto(a, b, c, use_avx2, "core.matmul");
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.rows(), b.rows()) << "MatMulTransA shape mismatch";
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  KernelScope scope("core.matmul_ta", "mcond.kernel.matmul_ta_us",
                    2 * m * k * n);
  const bool use_avx2 = simd::UseAvx2();
  Tensor c = GemmOutput(k, n, use_avx2);
  if (!use_avx2) {
    GemmInto(Transpose(a), b, c, /*use_avx2=*/false, "core.matmul_ta");
    return c;
  }
  // c[p][j] = sum_i a[i][p] * b[i][j]. The serial scatter form writes all
  // output rows while walking input rows, so parallelism goes over output
  // rows p instead: no write races, and each element keeps the serial
  // ascending-i order at any thread count / chunking. Packing Aᵀ would
  // cost O(mk) against O(mkn) work at the narrow n = 1 and C products.
  ParallelFor(
      0, k, GrainFromCost(2 * m * n),
      [&](int64_t p0, int64_t p1) {
        simd::Avx2GemmTransACols(a.data(), b.data(), c.data(), m, k, n, p0,
                                 p1);
      },
      "core.matmul_ta");
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.cols(), b.cols()) << "MatMulTransB shape mismatch";
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  KernelScope scope("core.matmul_tb", "mcond.kernel.matmul_tb_us",
                    2 * m * k * n);
  const bool use_avx2 = simd::UseAvx2();
  Tensor c = GemmOutput(m, n, use_avx2);
  // The packed Bᵀ (k×n) is the size of B: O(nk) against O(mnk) work.
  GemmInto(a, Transpose(b), c, use_avx2, "core.matmul_tb");
  return c;
}

namespace serial {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  Tensor c(a.rows(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.RowData(i);
    float* crow = c.RowData(i);
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b.RowData(p);
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.rows(), b.rows()) << "MatMulTransA shape mismatch";
  Tensor c(a.cols(), b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.RowData(i);
    const float* brow = b.RowData(i);
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      float* crow = c.RowData(p);
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.cols(), b.cols()) << "MatMulTransB shape mismatch";
  Tensor c(a.rows(), b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.RowData(i);
    float* crow = c.RowData(i);
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b.RowData(j);
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
  return c;
}

Tensor SoftmaxRows(const Tensor& a) {
  Tensor out(a.rows(), a.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* src = a.RowData(i);
    float* dst = out.RowData(i);
    float mx = src[0];
    for (int64_t j = 1; j < a.cols(); ++j) mx = std::max(mx, src[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < a.cols(); ++j) {
      dst[j] = std::exp(src[j] - mx);
      sum += dst[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < a.cols(); ++j) dst[j] *= inv;
  }
  return out;
}

}  // namespace serial

namespace {

// One loop body per elementwise op, compiled for the baseline ISA and for
// AVX2 (MCOND_VECTOR_CLONES, core/simd.h). Both clones give the bits of the
// scalar loop; `x > 0 ? x : 0` vectorizes as compare-and-mask, so NaN and
// -0 still give +0.
MCOND_VECTOR_CLONES
void AddLoop(const float* a, const float* b, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

MCOND_VECTOR_CLONES
void SubLoop(const float* a, const float* b, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] - b[i];
}

MCOND_VECTOR_CLONES
void MulLoop(const float* a, const float* b, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

MCOND_VECTOR_CLONES
void ScaleLoop(const float* a, float s, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = s * a[i];
}

/// a[i] += s * b[i], multiply then add (never fused).
MCOND_VECTOR_CLONES
void AxpyLoop(float* a, float s, const float* b, int64_t n) {
  for (int64_t i = 0; i < n; ++i) a[i] += s * b[i];
}

MCOND_VECTOR_CLONES
void ReluLoop(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

MCOND_VECTOR_CLONES
void ReluMaskLoop(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = a[i] > 0.0f ? 1.0f : 0.0f;
}

/// dst row i = a row i + r, for `rows` rows of width `cols`.
MCOND_VECTOR_CLONES
void AddRowLoop(const float* a, const float* r, float* dst, int64_t rows,
                int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      dst[i * cols + j] = a[i * cols + j] + r[j];
    }
  }
}

using UnaryLoop = void (*)(const float*, float*, int64_t);
using BinaryLoop = void (*)(const float*, const float*, float*, int64_t);

Tensor Elementwise(const Tensor& a, UnaryLoop loop) {
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t b, int64_t e) { loop(src + b, dst + b, e - b); },
      "core.elementwise");
  return out;
}

Tensor Binary(const Tensor& a, const Tensor& b, BinaryLoop loop) {
  MCOND_CHECK(a.SameShape(b)) << "shape mismatch " << a.rows() << "x"
                              << a.cols() << " vs " << b.rows() << "x"
                              << b.cols();
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t begin, int64_t end) {
        loop(pa + begin, pb + begin, dst + begin, end - begin);
      },
      "core.elementwise");
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return Binary(a, b, AddLoop); }

Tensor Sub(const Tensor& a, const Tensor& b) { return Binary(a, b, SubLoop); }

Tensor Mul(const Tensor& a, const Tensor& b) { return Binary(a, b, MulLoop); }

Tensor Scale(const Tensor& a, float s) {
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t b, int64_t e) { ScaleLoop(src + b, s, dst + b, e - b); },
      "core.elementwise");
  return out;
}

void AxpyInPlace(Tensor& a, float s, const Tensor& b) {
  MCOND_CHECK(a.SameShape(b)) << "AxpyInPlace shape mismatch";
  float* pa = a.data();
  const float* pb = b.data();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t begin, int64_t end) {
        AxpyLoop(pa + begin, s, pb + begin, end - begin);
      },
      "core.axpy");
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  MCOND_CHECK_EQ(row.rows(), 1);
  MCOND_CHECK_EQ(row.cols(), a.cols());
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  ParallelFor(
      0, a.rows(), GrainFromCost(a.cols()),
      [&](int64_t i0, int64_t i1) {
        AddRowLoop(a.RowData(i0), row.data(), out.RowData(i0), i1 - i0,
                   a.cols());
      },
      "core.add_row_broadcast");
  return out;
}

Tensor Transpose(const Tensor& a) {
  Tensor out = Tensor::Uninitialized(a.cols(), a.rows());
  const int64_t rows = a.rows(), cols = a.cols();
  ParallelFor(
      0, cols, GrainFromCost(rows),
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          float* orow = out.RowData(c);
          for (int64_t i = 0; i < rows; ++i) orow[i] = a.RowData(i)[c];
        }
      },
      "core.transpose");
  return out;
}

Tensor Relu(const Tensor& a) { return Elementwise(a, ReluLoop); }

Tensor ReluMask(const Tensor& pre_activation) {
  return Elementwise(pre_activation, ReluMaskLoop);
}

namespace {

/// Split by sign for numerical stability on large |x|.
inline float SigmoidScalar(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

void SigmoidLoop(const float* a, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = SigmoidScalar(a[i]);
}

}  // namespace

Tensor Sigmoid(const Tensor& a) { return Elementwise(a, SigmoidLoop); }

Tensor SigmoidRowNormalize(const Tensor& a, float eps, Tensor* sigmoid,
                           Tensor* inv_row_sums) {
  MCOND_CHECK((sigmoid == nullptr) == (inv_row_sums == nullptr))
      << "SigmoidRowNormalize saves σ and 1/s together or not at all";
  const int64_t cols = a.cols();
  Tensor out = Tensor::Uninitialized(a.rows(), cols);
  if (sigmoid != nullptr) {
    *sigmoid = Tensor::Uninitialized(a.rows(), cols);
    *inv_row_sums = Tensor::Uninitialized(a.rows(), 1);
  }
  const float shift = -eps;
  // Row-parallel, one pass per row. Each step is the expression of the
  // chain Sigmoid → RowSum → DivRowBroadcast → AddScalar(−eps) → Relu,
  // so the bits match it at every pool width and on every CPU (those ops
  // are exact on every SIMD tier).
  ParallelFor(
      0, a.rows(), GrainFromCost(4 * cols),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* src = a.RowData(i);
          float* dst = out.RowData(i);
          // Without a caller to save σ, `dst` holds it until overwritten.
          float* y = sigmoid != nullptr ? sigmoid->RowData(i) : dst;
          double acc = 0.0;
          for (int64_t j = 0; j < cols; ++j) {
            y[j] = SigmoidScalar(src[j]);
            acc += y[j];
          }
          const float s = static_cast<float>(acc);
          MCOND_CHECK_GT(s, 0.0f) << "SigmoidRowNormalize needs positive rows";
          const float inv = 1.0f / s;
          if (inv_row_sums != nullptr) inv_row_sums->RowData(i)[0] = inv;
          for (int64_t j = 0; j < cols; ++j) {
            const float x = y[j] * inv + shift;
            dst[j] = x > 0.0f ? x : 0.0f;
          }
        }
      },
      "core.sigmoid_row_normalize");
  return out;
}

Tensor SigmoidRowNormalizeBackward(const Tensor& g, const Tensor& out,
                                   const Tensor& sigmoid,
                                   const Tensor& inv_row_sums) {
  MCOND_CHECK(g.SameShape(out) && g.SameShape(sigmoid))
      << "SigmoidRowNormalizeBackward shape mismatch";
  MCOND_CHECK_EQ(inv_row_sums.rows(), g.rows());
  const int64_t cols = g.cols();
  Tensor d = Tensor::Uninitialized(g.rows(), cols);
  // Per row, the backward of the five-op chain expression for expression:
  // the ReLU mask multiplies g (so masked entries keep the sign of g·0),
  // the 1/s branch folds Σ_j (g·mask)·y in double, and σ' = y·(1−y).
  ParallelFor(
      0, g.rows(), GrainFromCost(4 * cols),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* pg = g.RowData(i);
          const float* po = out.RowData(i);
          const float* py = sigmoid.RowData(i);
          float* pd = d.RowData(i);
          const float inv = inv_row_sums.RowData(i)[0];
          double acc = 0.0;
          for (int64_t j = 0; j < cols; ++j) {
            pd[j] = pg[j] * (po[j] > 0.0f ? 1.0f : 0.0f);
            acc += pd[j] * py[j];
          }
          float gv = static_cast<float>(acc);
          gv *= -inv * inv;
          for (int64_t j = 0; j < cols; ++j) {
            pd[j] = (pd[j] * inv + gv) * py[j] * (1.0f - py[j]);
          }
        }
      },
      "core.sigmoid_row_normalize_bwd");
  return d;
}

Tensor SoftmaxRows(const Tensor& a) {
  const bool use_avx2 = simd::UseAvx2();
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const int64_t cols = a.cols();
  ParallelFor(
      0, a.rows(), GrainFromCost(4 * cols),
      [&](int64_t i0, int64_t i1) {
        // Rows narrower than one vector take the scalar body on both tiers.
        if (use_avx2 && cols >= 8) {
          simd::Avx2SoftmaxRows(a.data(), out.data(), cols, i0, i1);
          return;
        }
        for (int64_t i = i0; i < i1; ++i) {
          const float* src = a.RowData(i);
          float* dst = out.RowData(i);
          float mx = src[0];
          for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, src[j]);
          float sum = 0.0f;
          for (int64_t j = 0; j < cols; ++j) {
            dst[j] = std::exp(src[j] - mx);
            sum += dst[j];
          }
          const float inv = 1.0f / sum;
          for (int64_t j = 0; j < cols; ++j) dst[j] *= inv;
        }
      },
      "core.softmax");
  return out;
}

std::vector<int64_t> ArgmaxRows(const Tensor& a) {
  std::vector<int64_t> out(static_cast<size_t>(a.rows()));
  const int64_t cols = a.cols();
  ParallelFor(
      0, a.rows(), GrainFromCost(cols),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* row = a.RowData(i);
          int64_t best = 0;
          for (int64_t j = 1; j < cols; ++j) {
            if (row[j] > row[best]) best = j;
          }
          out[static_cast<size_t>(i)] = best;
        }
      },
      "core.argmax");
  return out;
}

// Whole-tensor reductions stay single-threaded: they fold into one scalar
// in a fixed order, and a chunked tree reduction would change the result
// bits. They are O(size) with a double accumulator — never the bottleneck.
float Sum(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float FrobeniusNorm(const Tensor& a) {
  double acc = 0.0;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += double(p[i]) * p[i];
  return std::sqrt(static_cast<float>(acc));
}

Tensor RowSum(const Tensor& a) {
  Tensor out = Tensor::Uninitialized(a.rows(), 1);
  const int64_t cols = a.cols();
  ParallelFor(
      0, a.rows(), GrainFromCost(cols),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* row = a.RowData(i);
          double acc = 0.0;
          for (int64_t j = 0; j < cols; ++j) acc += row[j];
          out.RowData(i)[0] = static_cast<float>(acc);
        }
      },
      "core.rowsum");
  return out;
}

Tensor RowL2Norm(const Tensor& a) {
  Tensor out = Tensor::Uninitialized(a.rows(), 1);
  const int64_t cols = a.cols();
  ParallelFor(
      0, a.rows(), GrainFromCost(2 * cols),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* row = a.RowData(i);
          double acc = 0.0;
          for (int64_t j = 0; j < cols; ++j) acc += double(row[j]) * row[j];
          out.RowData(i)[0] = static_cast<float>(std::sqrt(acc));
        }
      },
      "core.rowl2norm");
  return out;
}

Tensor ColSum(const Tensor& a) {
  Tensor out(1, a.cols());
  float* dst = out.data();
  const int64_t rows = a.rows();
  // Column-partitioned: each chunk owns a disjoint slice of the output row
  // and folds the full row range in ascending order, exactly like serial.
  ParallelFor(
      0, a.cols(), GrainFromCost(rows),
      [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < rows; ++i) {
          const float* row = a.RowData(i);
          for (int64_t j = j0; j < j1; ++j) dst[j] += row[j];
        }
      },
      "core.colsum");
  return out;
}

Tensor ConcatRows(const Tensor& top, const Tensor& bottom) {
  if (top.empty() && top.rows() == 0) {
    // Allow stacking onto an empty tensor of matching width or a 0x0.
    if (top.cols() == 0) return bottom;
  }
  MCOND_CHECK_EQ(top.cols(), bottom.cols()) << "ConcatRows width mismatch";
  Tensor out = Tensor::Uninitialized(top.rows() + bottom.rows(), top.cols());
  // Parallel pure copies into disjoint destination rows: bit-identical at
  // any width. On serving-sized bases the stack is bandwidth-bound and the
  // serial copy dominated compose time.
  const int64_t grain = GrainFromCost(top.cols() + 1);
  ParallelFor(
      0, top.rows(), grain,
      [&](int64_t r0, int64_t r1) {
        std::copy(top.RowData(r0), top.RowData(r0) + (r1 - r0) * top.cols(),
                  out.RowData(r0));
      },
      "core.concat_rows");
  ParallelFor(
      0, bottom.rows(), grain,
      [&](int64_t r0, int64_t r1) {
        std::copy(bottom.RowData(r0),
                  bottom.RowData(r0) + (r1 - r0) * bottom.cols(),
                  out.RowData(top.rows() + r0));
      },
      "core.concat_rows");
  return out;
}

Tensor ConcatCols(const Tensor& left, const Tensor& right) {
  MCOND_CHECK_EQ(left.rows(), right.rows()) << "ConcatCols height mismatch";
  Tensor out = Tensor::Uninitialized(left.rows(), left.cols() + right.cols());
  for (int64_t i = 0; i < left.rows(); ++i) {
    std::copy(left.RowData(i), left.RowData(i) + left.cols(), out.RowData(i));
    std::copy(right.RowData(i), right.RowData(i) + right.cols(),
              out.RowData(i) + left.cols());
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int64_t begin, int64_t end) {
  MCOND_CHECK(begin >= 0 && begin <= end && end <= a.rows())
      << "SliceRows [" << begin << "," << end << ") of " << a.rows();
  Tensor out = Tensor::Uninitialized(end - begin, a.cols());
  std::copy(a.RowData(begin), a.RowData(begin) + out.size(), out.data());
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  Tensor out = Tensor::Uninitialized(static_cast<int64_t>(indices.size()),
                                     a.cols());
  const int64_t cols = a.cols();
  ParallelFor(
      0, static_cast<int64_t>(indices.size()), GrainFromCost(cols),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const int64_t src = indices[static_cast<size_t>(i)];
          MCOND_CHECK(src >= 0 && src < a.rows())
              << "GatherRows index " << src;
          std::copy(a.RowData(src), a.RowData(src) + cols, out.RowData(i));
        }
      },
      "core.gather_rows");
  return out;
}

void ScatterRowsInPlace(Tensor& dst, int64_t begin, const Tensor& src) {
  MCOND_CHECK_EQ(dst.cols(), src.cols());
  MCOND_CHECK_LE(begin + src.rows(), dst.rows());
  std::copy(src.data(), src.data() + src.size(), dst.RowData(begin));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  MCOND_CHECK(a.SameShape(b)) << "MaxAbsDiff shape mismatch";
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(pa[i] - pb[i]));
  }
  return mx;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.SameShape(b)) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace mcond
