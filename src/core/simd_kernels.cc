#include "core/simd_kernels.h"

// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off
// when the toolchain targets x86-64 (src/core/CMakeLists.txt defines
// MCOND_SIMD_AVX2_COMPILED then). -ffp-contract=off matters: the exact
// kernels express multiply-then-add through intrinsics that GCC lowers to
// plain vector ops, and contraction would silently fuse them into FMA,
// changing the rounding the bit-identity contract depends on. The GEMM /
// softmax kernels request fusion explicitly via _mm256_fmadd_ps.

#if defined(MCOND_SIMD_AVX2_COMPILED)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace mcond {
namespace simd {

namespace {

/// Sum of the 8 lanes with a fixed reduction tree. Every dot-product
/// kernel funnels through this one helper so an element's reduction order
/// never depends on which register block computed it.
inline float ReduceAdd8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);            // [0+4, 1+5, 2+6, 3+7]
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));   // [(0+4)+(2+6), (1+5)+(3+7), ..]
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

/// expf over 8 lanes: clamp, split x = n·ln2 + r, degree-5 polynomial on
/// r, scale by 2^n through the exponent bits. The classic Cephes
/// constants; ≈2 ulp of relative error across the softmax input range
/// (inputs are max-subtracted, so x ≤ 0 and underflow clamps at the
/// smallest normal).
inline __m256 Exp8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647950f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);
  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

/// One C row of A·B: identical j-tiling and k-order to the 4-row block so
/// a row's bits don't depend on where a chunk boundary fell.
inline void GemmRow1(const float* arow, const float* b, float* crow,
                     int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 c0 = _mm256_setzero_ps();
    __m256 c1 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_broadcast_ss(arow + p);
      const float* brow = b + p * n + j;
      c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), c0);
      c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), c1);
    }
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + 8, c1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + p),
                           _mm256_loadu_ps(b + p * n + j), c0);
    }
    _mm256_storeu_ps(crow + j, c0);
  }
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (int64_t p = 0; p < k; ++p) acc = std::fmaf(arow[p], b[p * n + j], acc);
    crow[j] = acc;
  }
}

/// Four C rows at once: 4×16 accumulator tile (8 registers) held across
/// the whole k loop, one broadcast per (row, p).
inline void GemmRow4(const float* a0, const float* a1, const float* a2,
                     const float* a3, const float* b, float* c0r, float* c1r,
                     float* c2r, float* c3r, int64_t k, int64_t n) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + j;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      __m256 av = _mm256_broadcast_ss(a0 + p);
      c00 = _mm256_fmadd_ps(av, b0, c00);
      c01 = _mm256_fmadd_ps(av, b1, c01);
      av = _mm256_broadcast_ss(a1 + p);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
      av = _mm256_broadcast_ss(a2 + p);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
      av = _mm256_broadcast_ss(a3 + p);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    _mm256_storeu_ps(c0r + j, c00);
    _mm256_storeu_ps(c0r + j + 8, c01);
    _mm256_storeu_ps(c1r + j, c10);
    _mm256_storeu_ps(c1r + j + 8, c11);
    _mm256_storeu_ps(c2r + j, c20);
    _mm256_storeu_ps(c2r + j + 8, c21);
    _mm256_storeu_ps(c3r + j, c30);
    _mm256_storeu_ps(c3r + j + 8, c31);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 v0 = _mm256_setzero_ps(), v1 = _mm256_setzero_ps();
    __m256 v2 = _mm256_setzero_ps(), v3 = _mm256_setzero_ps();
    for (int64_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * n + j);
      v0 = _mm256_fmadd_ps(_mm256_broadcast_ss(a0 + p), bv, v0);
      v1 = _mm256_fmadd_ps(_mm256_broadcast_ss(a1 + p), bv, v1);
      v2 = _mm256_fmadd_ps(_mm256_broadcast_ss(a2 + p), bv, v2);
      v3 = _mm256_fmadd_ps(_mm256_broadcast_ss(a3 + p), bv, v3);
    }
    _mm256_storeu_ps(c0r + j, v0);
    _mm256_storeu_ps(c1r + j, v1);
    _mm256_storeu_ps(c2r + j, v2);
    _mm256_storeu_ps(c3r + j, v3);
  }
  for (; j < n; ++j) {
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float bv = b[p * n + j];
      s0 = std::fmaf(a0[p], bv, s0);
      s1 = std::fmaf(a1[p], bv, s1);
      s2 = std::fmaf(a2[p], bv, s2);
      s3 = std::fmaf(a3[p], bv, s3);
    }
    c0r[j] = s0;
    c1r[j] = s1;
    c2r[j] = s2;
    c3r[j] = s3;
  }
}

/// Reduction rows per block of Avx2GemmTransACols. A block's B rows
/// (256 × n floats, 64 KiB at n = 64) and the A columns of a task's output
/// rows stay in L2 while every output tile sweeps them; the vector tier's
/// counterpart of tensor_ops.cc's kIc.
constexpr int64_t kTransARows = 256;

/// Running sums of one 8-wide C segment at the start of a reduction block:
/// +0 for the first block, the parked partial sums after it. Parking a
/// float in C and loading it back is exact, so a blocked sweep keeps the
/// bits of one unbroken fmadd chain.
inline __m256 StartSums(const float* c, bool first) {
  return first ? _mm256_setzero_ps() : _mm256_loadu_ps(c);
}

/// C rows [p, p+R) × columns [j, j+8V) of Aᵀ·B, advanced over the
/// reduction rows [i0, i1): R×V accumulators, V B loads and R broadcasts
/// of A per reduction row.
template <int R, int V>
inline void TransATile(const float* a, const float* b, float* c, int64_t k,
                       int64_t n, int64_t p, int64_t j, int64_t i0,
                       int64_t i1) {
  const bool first = i0 == 0;
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = StartSums(c + (p + r) * n + j + 8 * v, first);
    }
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * k + p;
    const float* bi = b + i * n + j;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(bi + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ai + r);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(c + (p + r) * n + j + 8 * v, acc[r][v]);
    }
  }
}

/// Columns [0, j1), j1 a multiple of 8, of the R output rows from p.
template <int R>
inline void TransARows(const float* a, const float* b, float* c, int64_t k,
                       int64_t n, int64_t p, int64_t j1, int64_t i0,
                       int64_t i1) {
  int64_t j = 0;
  for (; j + 16 <= j1; j += 16) TransATile<R, 2>(a, b, c, k, n, p, j, i0, i1);
  if (j < j1) TransATile<R, 1>(a, b, c, k, n, p, j, i0, i1);
}

/// Lanes [0, live) of a vector, for the partial last group of output rows.
inline __m256i LiveLanes(int64_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// C column j, rows [p, p+rows) with rows ≤ 8V: lanes run over output
/// rows, so a column narrower than a vector still computes 8 elements per
/// fmadd. The A loads are contiguous row slices; lanes past `rows` are
/// masked off (never read, never written).
template <int V>
inline void TransAColumn(const float* a, const float* b, float* c, int64_t k,
                         int64_t n, int64_t p, int64_t rows, int64_t j,
                         int64_t i0, int64_t i1) {
  const bool first = i0 == 0;
  __m256i live[V];
  __m256 acc[V];
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) {
    live[v] = LiveLanes(rows - 8 * v);
    alignas(32) float sums[8] = {};
    if (!first) {
      for (int64_t l = 0; l < std::min<int64_t>(8, rows - 8 * v); ++l) {
        sums[l] = c[(p + 8 * v + l) * n + j];
      }
    }
    acc[v] = _mm256_load_ps(sums);
  }
  for (int64_t i = i0; i < i1; ++i) {
    const __m256 bij = _mm256_broadcast_ss(b + i * n + j);
    const float* ai = a + i * k + p;
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      acc[v] = _mm256_fmadd_ps(_mm256_maskload_ps(ai + 8 * v, live[v]), bij,
                               acc[v]);
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < V; ++v) {
    alignas(32) float sums[8];
    _mm256_store_ps(sums, acc[v]);
    for (int64_t l = 0; l < std::min<int64_t>(8, rows - 8 * v); ++l) {
      c[(p + 8 * v + l) * n + j] = sums[l];
    }
  }
}

}  // namespace

void Avx2GemmRows(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t i0, int64_t i1) {
  int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    GemmRow4(a + i * k, a + (i + 1) * k, a + (i + 2) * k, a + (i + 3) * k, b,
             c + i * n, c + (i + 1) * n, c + (i + 2) * n, c + (i + 3) * n, k,
             n);
  }
  for (; i < i1; ++i) GemmRow1(a + i * k, b, c + i * n, k, n);
}

void Avx2GemmTransACols(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, int64_t p0, int64_t p1) {
  // c[p][j] = sum_i a[i][p] * b[i][j], one fmadd chain per element in
  // ascending i from +0, whatever tile computes it: the tile shapes, the
  // row blocks and the chunk boundaries change the order of independent
  // chains only, so the bits equal an unblocked element-by-element sweep.
  // Columns in multiples of 8 run 4×16 register tiles (B rows stream
  // 8-wide, A columns broadcast); the last n mod 8 columns run lanes over
  // output rows instead.
  const int64_t n8 = n & ~int64_t{7};
  int64_t i0 = 0;
  do {  // The first block runs even when m = 0: it writes the +0 sums.
    const int64_t i1 = std::min(m, i0 + kTransARows);
    int64_t p = p0;
    for (; p + 4 <= p1; p += 4) TransARows<4>(a, b, c, k, n, p, n8, i0, i1);
    switch (p1 - p) {
      case 3: TransARows<3>(a, b, c, k, n, p, n8, i0, i1); break;
      case 2: TransARows<2>(a, b, c, k, n, p, n8, i0, i1); break;
      case 1: TransARows<1>(a, b, c, k, n, p, n8, i0, i1); break;
      default: break;
    }
    for (int64_t j = n8; j < n; ++j) {
      for (int64_t q = p0; q < p1; q += 32) {
        const int64_t rows = std::min<int64_t>(32, p1 - q);
        switch ((rows + 7) / 8) {
          case 4: TransAColumn<4>(a, b, c, k, n, q, rows, j, i0, i1); break;
          case 3: TransAColumn<3>(a, b, c, k, n, q, rows, j, i0, i1); break;
          case 2: TransAColumn<2>(a, b, c, k, n, q, rows, j, i0, i1); break;
          default: TransAColumn<1>(a, b, c, k, n, q, rows, j, i0, i1); break;
        }
      }
    }
    i0 = i1;
  } while (i0 < m);
}

void Avx2GemmTransBRows(const float* a, const float* b, float* c, int64_t k,
                        int64_t n, int64_t i0, int64_t i1) {
  if (k < 8) {
    // B rows shorter than a vector: lanes run over 8 output columns
    // instead, each an fmadd chain over ascending p from +0 — the bits of
    // the dot-product form below, whose lane sums are all +0 at k < 8.
    const __m256i stride = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(static_cast<int>(k)));
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256 v = _mm256_setzero_ps();
        for (int64_t p = 0; p < k; ++p) {
          v = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + p),
                              _mm256_i32gather_ps(b + j * k + p, stride, 4),
                              v);
        }
        _mm256_storeu_ps(crow + j, v);
      }
      for (; j < n; ++j) {
        float s = 0.0f;
        for (int64_t p = 0; p < k; ++p) s = std::fmaf(arow[p], b[j * k + p], s);
        crow[j] = s;
      }
    }
    return;
  }
  const int64_t k8 = k & ~int64_t{7};
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      __m256 v0 = _mm256_setzero_ps(), v1 = _mm256_setzero_ps();
      __m256 v2 = _mm256_setzero_ps(), v3 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k8; p += 8) {
        const __m256 av = _mm256_loadu_ps(arow + p);
        v0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + p), v0);
        v1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + p), v1);
        v2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + p), v2);
        v3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + p), v3);
      }
      float s0 = ReduceAdd8(v0), s1 = ReduceAdd8(v1);
      float s2 = ReduceAdd8(v2), s3 = ReduceAdd8(v3);
      for (int64_t p = k8; p < k; ++p) {
        const float av = arow[p];
        s0 = std::fmaf(av, b0[p], s0);
        s1 = std::fmaf(av, b1[p], s1);
        s2 = std::fmaf(av, b2[p], s2);
        s3 = std::fmaf(av, b3[p], s3);
      }
      crow[j] = s0;
      crow[j + 1] = s1;
      crow[j + 2] = s2;
      crow[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 v = _mm256_setzero_ps();
      for (int64_t p = 0; p < k8; p += 8) {
        v = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                            _mm256_loadu_ps(brow + p), v);
      }
      float s = ReduceAdd8(v);
      for (int64_t p = k8; p < k; ++p) s = std::fmaf(arow[p], brow[p], s);
      crow[j] = s;
    }
  }
}

void Avx2SpmmRows(const int64_t* row_ptr, const int32_t* col_idx,
                  const float* values, const float* x, float* y, int64_t d,
                  int64_t r0, int64_t r1) {
  // Bit-identity path: each output element accumulates v_k * x[col_k][j]
  // in ascending-k order with an UNFUSED multiply-then-add, exactly like
  // the scalar gather loop. Lanes are independent j's, so vector width and
  // tile boundaries cannot change any element's rounding. The j-tiles keep
  // the y accumulators in registers across the whole row.
  for (int64_t r = r0; r < r1; ++r) {
    const int64_t kb = row_ptr[r];
    const int64_t ke = row_ptr[r + 1];
    float* yrow = y + r * d;
    int64_t j = 0;
    for (; j + 32 <= d; j += 32) {
      __m256 y0 = _mm256_setzero_ps(), y1 = _mm256_setzero_ps();
      __m256 y2 = _mm256_setzero_ps(), y3 = _mm256_setzero_ps();
      for (int64_t kk = kb; kk < ke; ++kk) {
        const __m256 vv = _mm256_broadcast_ss(values + kk);
        const float* xrow = x + static_cast<int64_t>(col_idx[kk]) * d + j;
        y0 = _mm256_add_ps(y0, _mm256_mul_ps(vv, _mm256_loadu_ps(xrow)));
        y1 = _mm256_add_ps(y1, _mm256_mul_ps(vv, _mm256_loadu_ps(xrow + 8)));
        y2 = _mm256_add_ps(y2, _mm256_mul_ps(vv, _mm256_loadu_ps(xrow + 16)));
        y3 = _mm256_add_ps(y3, _mm256_mul_ps(vv, _mm256_loadu_ps(xrow + 24)));
      }
      _mm256_storeu_ps(yrow + j, y0);
      _mm256_storeu_ps(yrow + j + 8, y1);
      _mm256_storeu_ps(yrow + j + 16, y2);
      _mm256_storeu_ps(yrow + j + 24, y3);
    }
    for (; j + 8 <= d; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int64_t kk = kb; kk < ke; ++kk) {
        const __m256 vv = _mm256_broadcast_ss(values + kk);
        const float* xrow = x + static_cast<int64_t>(col_idx[kk]) * d + j;
        acc = _mm256_add_ps(acc, _mm256_mul_ps(vv, _mm256_loadu_ps(xrow)));
      }
      _mm256_storeu_ps(yrow + j, acc);
    }
    for (; j < d; ++j) {
      float acc = 0.0f;
      for (int64_t kk = kb; kk < ke; ++kk) {
        acc += values[kk] * x[static_cast<int64_t>(col_idx[kk]) * d + j];
      }
      yrow[j] = acc;
    }
  }
}

void Avx2Add(const float* a, const float* b, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

void Avx2Sub(const float* a, const float* b, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] - b[i];
}

void Avx2MulEw(const float* a, const float* b, float* dst, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                            _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] * b[i];
}

void Avx2Scale(const float* a, float s, float* dst, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(sv, _mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) dst[i] = s * a[i];
}

void Avx2Axpy(float* a, float s, const float* b, int64_t n) {
  const __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(sv, _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), prod));
  }
  for (; i < n; ++i) a[i] += s * b[i];
}

void Avx2Relu(const float* a, float* dst, int64_t n) {
  // max_ps(x, 0) returns the second operand on NaN and +0 for ±0, matching
  // the scalar `x > 0 ? x : 0` exactly.
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) dst[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void Avx2ReluMask(const float* a, float* dst, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gt = _mm256_cmp_ps(_mm256_loadu_ps(a + i), zero, _CMP_GT_OQ);
    _mm256_storeu_ps(dst + i, _mm256_and_ps(gt, one));
  }
  for (; i < n; ++i) dst[i] = a[i] > 0.0f ? 1.0f : 0.0f;
}

void Avx2AddRowInPlace(float* row, const float* r, int64_t n) {
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(row + j),
                                            _mm256_loadu_ps(r + j)));
  }
  for (; j < n; ++j) row[j] += r[j];
}

void Avx2SoftmaxRows(const float* src, float* dst, int64_t cols, int64_t i0,
                     int64_t i1) {
  const int64_t c8 = cols & ~int64_t{7};
  for (int64_t i = i0; i < i1; ++i) {
    const float* s = src + i * cols;
    float* d = dst + i * cols;
    if (cols < 8) {
      // Scalar sequence for narrow rows (identical to the scalar tier).
      float mx = s[0];
      for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, s[j]);
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) {
        d[j] = std::exp(s[j] - mx);
        sum += d[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < cols; ++j) d[j] *= inv;
      continue;
    }
    // Max: exact at any lane order.
    __m256 vmax = _mm256_loadu_ps(s);
    int64_t j = 8;
    for (; j + 8 <= cols; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(s + j));
    }
    const __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                                 _mm256_extractf128_ps(vmax, 1));
    const __m128 m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    float mx =
        _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1)));
    for (int64_t t = c8; t < cols; ++t) mx = std::max(mx, s[t]);
    // Exp + lane-accumulated sum (reassociated: tolerance tier).
    const __m256 mxv = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (j = 0; j + 8 <= cols; j += 8) {
      const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(s + j), mxv));
      _mm256_storeu_ps(d + j, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    float sum = ReduceAdd8(vsum);
    for (int64_t t = c8; t < cols; ++t) {
      d[t] = std::exp(s[t] - mx);
      sum += d[t];
    }
    const float inv = 1.0f / sum;
    const __m256 invv = _mm256_set1_ps(inv);
    for (j = 0; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(d + j, _mm256_mul_ps(_mm256_loadu_ps(d + j), invv));
    }
    for (int64_t t = c8; t < cols; ++t) d[t] *= inv;
  }
}

void Avx2SymNormalizeRows(const int64_t* row_ptr, const int32_t* col_idx,
                          const float* v, const float* dinv_row,
                          const float* dinv_sqrt, float* out, int64_t r0,
                          int64_t r1) {
  for (int64_t r = r0; r < r1; ++r) {
    const float dr = dinv_row[r];
    const __m256 drv = _mm256_set1_ps(dr);
    const int64_t kb = row_ptr[r];
    const int64_t ke = row_ptr[r + 1];
    int64_t kk = kb;
    for (; kk + 8 <= ke; kk += 8) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col_idx + kk));
      const __m256 dc = _mm256_i32gather_ps(dinv_sqrt, idx, 4);
      // (v * dr) * dinv[col]: same association as the scalar rescale.
      const __m256 vdr = _mm256_mul_ps(_mm256_loadu_ps(v + kk), drv);
      _mm256_storeu_ps(out + kk, _mm256_mul_ps(vdr, dc));
    }
    for (; kk < ke; ++kk) {
      out[kk] = v[kk] * dr * dinv_sqrt[static_cast<size_t>(col_idx[kk])];
    }
  }
}

}  // namespace simd
}  // namespace mcond

#else  // !MCOND_SIMD_AVX2_COMPILED

#include <cstdlib>

// Link-time stubs for builds without AVX2 codegen. Unreachable: every call
// site gates on simd::UseAvx2(), which is false when Avx2Compiled() is.
namespace mcond {
namespace simd {

void Avx2GemmRows(const float*, const float*, float*, int64_t, int64_t,
                  int64_t, int64_t) {
  std::abort();
}
void Avx2GemmTransACols(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, int64_t, int64_t) {
  std::abort();
}
void Avx2GemmTransBRows(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, int64_t) {
  std::abort();
}
void Avx2SpmmRows(const int64_t*, const int32_t*, const float*, const float*,
                  float*, int64_t, int64_t, int64_t) {
  std::abort();
}
void Avx2Add(const float*, const float*, float*, int64_t) { std::abort(); }
void Avx2Sub(const float*, const float*, float*, int64_t) { std::abort(); }
void Avx2MulEw(const float*, const float*, float*, int64_t) { std::abort(); }
void Avx2Scale(const float*, float, float*, int64_t) { std::abort(); }
void Avx2Axpy(float*, float, const float*, int64_t) { std::abort(); }
void Avx2Relu(const float*, float*, int64_t) { std::abort(); }
void Avx2ReluMask(const float*, float*, int64_t) { std::abort(); }
void Avx2AddRowInPlace(float*, const float*, int64_t) { std::abort(); }
void Avx2SoftmaxRows(const float*, float*, int64_t, int64_t, int64_t) {
  std::abort();
}
void Avx2SymNormalizeRows(const int64_t*, const int32_t*, const float*,
                          const float*, const float*, float*, int64_t,
                          int64_t) {
  std::abort();
}

}  // namespace simd
}  // namespace mcond

#endif  // MCOND_SIMD_AVX2_COMPILED
