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

/// Sum of the 8 lanes with a fixed reduction tree: the lane sum of
/// Avx2SoftmaxRows, the one kernel here that reorders a reduction.
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

/// Lanes [0, live) of a vector, for a partial last group of rows or
/// columns.
inline __m256i LiveLanes(int64_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// One product op(A)·B for the register tiles: op(A)(r, i) sits at
/// a[r·rs + i·is], so (rs, is) is (k, 1) for A·B and (1, k) for Aᵀ·B.
/// Reduction step i reads B row i, and output row r is C row r (both of
/// width n).
struct GemmOperands {
  const float* a;
  int64_t rs, is;
  const float* b;
  float* c;
  int64_t n;
};

/// Reduction rows per block of Avx2GemmTransACols. A block's B rows
/// (256 × n floats, 64 KiB at n = 64) and the A columns of a task's output
/// rows stay in L2 while every output tile sweeps them.
constexpr int64_t kTransARows = 256;

/// C rows [r0, r0+R) × columns [j, j+8V) of op(A)·B, advanced over the
/// reduction steps [i0, i1): R×V accumulators, V B loads and R broadcasts
/// of op(A) per step. A block after the first (i0 > 0) starts from the
/// sums parked in C; parking a float in C and loading it back is exact, so
/// a blocked sweep keeps the bits of one unbroken fmadd chain from +0.
/// kMask (V = 1) masks off the lanes at and past column n: a masked lane is
/// never read or written, and a live lane runs the same chain.
template <int R, int V, bool kMask = false>
inline void GemmTile(const GemmOperands& g, int64_t r0, int64_t j, int64_t i0,
                     int64_t i1) {
  static_assert(!kMask || V == 1, "only a one-vector tile is masked");
  const float* a = g.a + r0 * g.rs;
  const int64_t rs = g.rs, is = g.is, n = g.n;
  float* c = g.c + r0 * n + j;
  const __m256i live = LiveLanes(kMask ? n - j : 8);
  const auto load = [&](const float* src) {
    if constexpr (kMask) return _mm256_maskload_ps(src, live);
    return _mm256_loadu_ps(src);
  };
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = i0 == 0 ? _mm256_setzero_ps() : load(c + r * n + 8 * v);
    }
  }
  for (int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * is;
    const float* bi = g.b + i * n + j;
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) bv[v] = load(bi + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ai + r * rs);
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
      if constexpr (kMask) {
        _mm256_maskstore_ps(c + r * n, live, acc[r][v]);
      } else {
        _mm256_storeu_ps(c + r * n + 8 * v, acc[r][v]);
      }
    }
  }
}

/// The R output rows from r0 over the reduction steps [i0, i1): columns in
/// multiples of 8 as 16- and 8-wide tiles and, with mask_tail, the last
/// n mod 8 columns as one masked tile.
template <int R>
inline void GemmTileRow(const GemmOperands& g, int64_t r0, int64_t i0,
                        int64_t i1, bool mask_tail) {
  const int64_t n8 = g.n & ~int64_t{7};
  int64_t j = 0;
  for (; j + 16 <= n8; j += 16) GemmTile<R, 2>(g, r0, j, i0, i1);
  if (j < n8) GemmTile<R, 1>(g, r0, j, i0, i1);
  if (mask_tail && n8 < g.n) GemmTile<R, 1, true>(g, r0, n8, i0, i1);
}

/// Output rows [r0, r1) over the reduction steps [i0, i1): 4-row tiles,
/// then one tile of the last 1–3 rows. Tile shapes only interleave
/// independent chains, so they change no bits.
inline void GemmRowBlock(const GemmOperands& g, int64_t r0, int64_t r1,
                         int64_t i0, int64_t i1, bool mask_tail) {
  int64_t r = r0;
  for (; r + 4 <= r1; r += 4) GemmTileRow<4>(g, r, i0, i1, mask_tail);
  switch (r1 - r) {
    case 3: GemmTileRow<3>(g, r, i0, i1, mask_tail); break;
    case 2: GemmTileRow<2>(g, r, i0, i1, mask_tail); break;
    case 1: GemmTileRow<1>(g, r, i0, i1, mask_tail); break;
    default: break;
  }
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
  // c[i][j] = sum_p a[i][p] * b[p][j]: the whole reduction in one block,
  // so each element is one fmadd chain over ascending p from +0.
  GemmRowBlock({a, k, 1, b, c, n}, i0, i1, 0, k, /*mask_tail=*/true);
}

void Avx2GemmTransACols(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, int64_t p0, int64_t p1) {
  // c[p][j] = sum_i a[i][p] * b[i][j], one fmadd chain per element in
  // ascending i from +0, whatever tile computes it: the tile shapes, the
  // row blocks and the chunk boundaries change the order of independent
  // chains only, so the bits equal an unblocked element-by-element sweep.
  // Columns in multiples of 8 run the register tiles (B rows stream
  // 8-wide, A columns broadcast); the last n mod 8 columns run lanes over
  // output rows instead.
  const GemmOperands g{a, 1, k, b, c, n};
  const int64_t n8 = n & ~int64_t{7};
  int64_t i0 = 0;
  do {  // The first block runs even when m = 0: it writes the +0 sums.
    const int64_t i1 = std::min(m, i0 + kTransARows);
    GemmRowBlock(g, p0, p1, i0, i1, /*mask_tail=*/false);
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
void Avx2SpmmRows(const int64_t*, const int32_t*, const float*, const float*,
                  float*, int64_t, int64_t, int64_t) {
  std::abort();
}
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
