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

/// Cache tile sizes. kKc × kJc is the B panel a MatMul task sweeps
/// (64 × 256 floats = 64 KiB, comfortably L2-resident); kIc is the input
/// row block MatMulTransA keeps hot while sweeping its output rows.
constexpr int64_t kKc = 64;
constexpr int64_t kJc = 256;
constexpr int64_t kIc = 128;

/// Flat elementwise loops chunk at this many elements per task.
constexpr int64_t kElemGrain = int64_t{1} << 15;

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  KernelScope scope("core.matmul", "mcond.kernel.matmul_us", 2 * m * k * n);
  // SIMD tier captured once per call: the AVX2 microkernel overwrites its
  // rows (register accumulation over the whole k range), so it takes an
  // uninitialized output; the scalar path accumulates across k-tiles and
  // needs zeros.
  const bool use_avx2 = simd::UseAvx2();
  Tensor c = use_avx2 ? Tensor::Uninitialized(m, n) : Tensor(m, n);
  ParallelFor(
      0, m, GrainFromCost(2 * k * n),
      [&](int64_t i0, int64_t i1) {
        if (use_avx2) {
          simd::Avx2GemmRows(a.data(), b.data(), c.data(), k, n, i0, i1);
          return;
        }
        // k-tiles ascend in the outermost loop so every element still
        // accumulates its products in ascending-k order (bit-exact with
        // serial::MatMul); the j-tile keeps the B panel L2-resident.
        for (int64_t kt = 0; kt < k; kt += kKc) {
          const int64_t kt_end = std::min(k, kt + kKc);
          for (int64_t jt = 0; jt < n; jt += kJc) {
            const int64_t jlen = std::min(n, jt + kJc) - jt;
            for (int64_t i = i0; i < i1; ++i) {
              const float* arow = a.RowData(i);
              float* crow = c.RowData(i) + jt;
              for (int64_t p = kt; p < kt_end; ++p) {
                const float av = arow[p];
                const float* brow = b.RowData(p) + jt;
                for (int64_t j = 0; j < jlen; ++j) crow[j] += av * brow[j];
              }
            }
          }
        }
      },
      "core.matmul");
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.rows(), b.rows()) << "MatMulTransA shape mismatch";
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  KernelScope scope("core.matmul_ta", "mcond.kernel.matmul_ta_us",
                    2 * m * k * n);
  const bool use_avx2 = simd::UseAvx2();
  Tensor c = use_avx2 ? Tensor::Uninitialized(k, n)
                      : Tensor(k, n);  // Scalar accumulates across i-tiles.
  // c[p][j] += a[i][p] * b[i][j]. The serial scatter form writes all
  // output rows while walking input rows, so parallelism goes over output
  // rows p instead: no write races, and each element keeps the serial
  // ascending-i accumulation order at any thread count / chunking.
  ParallelFor(
      0, k, GrainFromCost(2 * m * n),
      [&](int64_t p0, int64_t p1) {
        if (use_avx2) {
          simd::Avx2GemmTransACols(a.data(), b.data(), c.data(), m, k, n, p0,
                                   p1);
          return;
        }
        for (int64_t it = 0; it < m; it += kIc) {
          const int64_t it_end = std::min(m, it + kIc);
          for (int64_t jt = 0; jt < n; jt += kJc) {
            const int64_t jlen = std::min(n, jt + kJc) - jt;
            for (int64_t p = p0; p < p1; ++p) {
              float* crow = c.RowData(p) + jt;
              for (int64_t i = it; i < it_end; ++i) {
                const float av = a.RowData(i)[p];
                const float* brow = b.RowData(i) + jt;
                for (int64_t j = 0; j < jlen; ++j) crow[j] += av * brow[j];
              }
            }
          }
        }
      },
      "core.matmul_ta");
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  MCOND_CHECK_EQ(a.cols(), b.cols()) << "MatMulTransB shape mismatch";
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  KernelScope scope("core.matmul_tb", "mcond.kernel.matmul_tb_us",
                    2 * m * k * n);
  Tensor c = Tensor::Uninitialized(m, n);  // Every element written once.
  const bool use_avx2 = simd::UseAvx2();
  ParallelFor(
      0, m, GrainFromCost(2 * k * n),
      [&](int64_t i0, int64_t i1) {
        if (use_avx2) {
          simd::Avx2GemmTransBRows(a.data(), b.data(), c.data(), k, n, i0,
                                   i1);
          return;
        }
        for (int64_t jt = 0; jt < n; jt += kKc) {
          const int64_t jt_end = std::min(n, jt + kKc);
          for (int64_t i = i0; i < i1; ++i) {
            const float* arow = a.RowData(i);
            float* crow = c.RowData(i);
            for (int64_t j = jt; j < jt_end; ++j) {
              const float* brow = b.RowData(j);
              float acc = 0.0f;
              for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
              crow[j] = acc;
            }
          }
        }
      },
      "core.matmul_tb");
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

/// Vectorized chunk bodies for the flat elementwise loops. The AVX2
/// kernels are exact (independent lanes, identical per-element ops), so
/// dispatching per chunk preserves the bit-identity contract; nullptr
/// means the op has no vector form and always runs the scalar lambda.
using UnaryKernel = void (*)(const float*, float*, int64_t);
using BinaryKernel = void (*)(const float*, const float*, float*, int64_t);

template <typename F>
Tensor Elementwise(const Tensor& a, F f, UnaryKernel vk = nullptr) {
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  const bool use_simd = vk != nullptr && simd::UseAvx2();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t b, int64_t e) {
        if (use_simd) {
          vk(src + b, dst + b, e - b);
          return;
        }
        for (int64_t i = b; i < e; ++i) dst[i] = f(src[i]);
      },
      "core.elementwise");
  return out;
}

template <typename F>
Tensor Binary(const Tensor& a, const Tensor& b, F f,
              BinaryKernel vk = nullptr) {
  MCOND_CHECK(a.SameShape(b)) << "shape mismatch " << a.rows() << "x"
                              << a.cols() << " vs " << b.rows() << "x"
                              << b.cols();
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  const bool use_simd = vk != nullptr && simd::UseAvx2();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t begin, int64_t end) {
        if (use_simd) {
          vk(pa + begin, pb + begin, dst + begin, end - begin);
          return;
        }
        for (int64_t i = begin; i < end; ++i) dst[i] = f(pa[i], pb[i]);
      },
      "core.elementwise");
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x + y; }, simd::Avx2Add);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x - y; }, simd::Avx2Sub);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x * y; }, simd::Avx2MulEw);
}

Tensor Scale(const Tensor& a, float s) {
  const bool use_avx2 = simd::UseAvx2();
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t b, int64_t e) {
        if (use_avx2) {
          simd::Avx2Scale(src + b, s, dst + b, e - b);
          return;
        }
        for (int64_t i = b; i < e; ++i) dst[i] = s * src[i];
      },
      "core.elementwise");
  return out;
}

void AxpyInPlace(Tensor& a, float s, const Tensor& b) {
  MCOND_CHECK(a.SameShape(b)) << "AxpyInPlace shape mismatch";
  const bool use_avx2 = simd::UseAvx2();
  float* pa = a.data();
  const float* pb = b.data();
  ParallelFor(
      0, a.size(), kElemGrain,
      [&](int64_t begin, int64_t end) {
        if (use_avx2) {
          simd::Avx2Axpy(pa + begin, s, pb + begin, end - begin);
          return;
        }
        for (int64_t i = begin; i < end; ++i) pa[i] += s * pb[i];
      },
      "core.axpy");
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& row) {
  MCOND_CHECK_EQ(row.rows(), 1);
  MCOND_CHECK_EQ(row.cols(), a.cols());
  const bool use_avx2 = simd::UseAvx2();
  Tensor out = a;
  const float* r = row.data();
  ParallelFor(
      0, a.rows(), GrainFromCost(a.cols()),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          float* orow = out.RowData(i);
          if (use_avx2) {
            simd::Avx2AddRowInPlace(orow, r, a.cols());
            continue;
          }
          for (int64_t j = 0; j < a.cols(); ++j) orow[j] += r[j];
        }
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

Tensor Relu(const Tensor& a) {
  return Elementwise(a, [](float x) { return x > 0.0f ? x : 0.0f; },
                     simd::Avx2Relu);
}

Tensor ReluMask(const Tensor& pre_activation) {
  return Elementwise(pre_activation,
                     [](float x) { return x > 0.0f ? 1.0f : 0.0f; },
                     simd::Avx2ReluMask);
}

namespace {

/// Split by sign for numerical stability on large |x|.
inline float SigmoidScalar(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

}  // namespace

Tensor Sigmoid(const Tensor& a) {
  return Elementwise(a, [](float x) { return SigmoidScalar(x); });
}

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
  // so the bits match it at every pool width and on both SIMD tiers (those
  // ops' AVX2 forms are exact).
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

Tensor TanhT(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::tanh(x); });
}

Tensor ExpT(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::exp(x); });
}

Tensor LogT(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::log(x); });
}

Tensor Abs(const Tensor& a) {
  return Elementwise(a, [](float x) { return std::fabs(x); });
}

Tensor SoftmaxRows(const Tensor& a) {
  const bool use_avx2 = simd::UseAvx2();
  Tensor out = Tensor::Uninitialized(a.rows(), a.cols());
  const int64_t cols = a.cols();
  ParallelFor(
      0, a.rows(), GrainFromCost(4 * cols),
      [&](int64_t i0, int64_t i1) {
        if (use_avx2) {
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

float Dot(const Tensor& a, const Tensor& b) {
  MCOND_CHECK(a.SameShape(b)) << "Dot shape mismatch";
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.size(); ++i) acc += double(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

float FrobeniusNorm(const Tensor& a) {
  return std::sqrt(std::max(0.0f, Dot(a, a)));
}

float MaxAbs(const Tensor& a) {
  float mx = 0.0f;
  const float* p = a.data();
  for (int64_t i = 0; i < a.size(); ++i) mx = std::max(mx, std::fabs(p[i]));
  return mx;
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

Tensor ColL2Norm(const Tensor& a) {
  Tensor sq(1, a.cols());
  float* dst = sq.data();
  const int64_t rows = a.rows();
  ParallelFor(
      0, a.cols(), GrainFromCost(2 * rows),
      [&](int64_t j0, int64_t j1) {
        for (int64_t i = 0; i < rows; ++i) {
          const float* row = a.RowData(i);
          for (int64_t j = j0; j < j1; ++j) dst[j] += row[j] * row[j];
        }
        for (int64_t j = j0; j < j1; ++j) dst[j] = std::sqrt(dst[j]);
      },
      "core.coll2norm");
  return sq;
}

float L21Norm(const Tensor& a) {
  return Sum(RowL2Norm(a));
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
