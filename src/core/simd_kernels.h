#ifndef MCOND_CORE_SIMD_KERNELS_H_
#define MCOND_CORE_SIMD_KERNELS_H_

#include <cstdint>

/// AVX2+FMA microkernels behind the runtime tier dispatch (core/simd.h).
///
/// Every function here computes the SAME row range a scalar kernel chunk
/// would, so the ThreadPool row-parallel partitioning composes with the
/// vector inner loops unchanged: callers keep their ParallelFor structure
/// and swap the chunk body. Determinism within the AVX2 tier holds at any
/// thread count because each output row's instruction sequence is a pure
/// function of the row, never of the chunk boundaries (multi-row register
/// blocks and single-row tails execute identical per-row op orders).
///
/// Exactness (see core/simd.h): the SpMM, elementwise, and normalize
/// kernels are bit-identical to their scalar counterparts (independent
/// lanes, multiply-then-add, per-element order preserved — the file is
/// compiled with -ffp-contract=off so no silent fusion). The GEMM and
/// softmax kernels use FMA and 8-lane reductions and are tolerance-bounded
/// instead.
///
/// These symbols are only defined when the build compiles AVX2 code
/// (simd::Avx2Compiled()); callers must gate on simd::UseAvx2(), which
/// implies both compile-time and runtime support. All loads/stores are
/// unaligned-tolerant (vmovups); tails shorter than a vector fall back to
/// scalar loops, except in MatMulTransA, whose narrow columns run lanes
/// over output rows.

namespace mcond {
namespace simd {

/// C rows [i0, i1) of C(m×n) = A(m×k) · B(k×n). Writes every element of
/// those rows (C may be uninitialized). 4×16 register tiles, FMA.
void Avx2GemmRows(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t i0, int64_t i1);

/// C rows [p0, p1) of C(k×n) = A(m×k)ᵀ · B(m×n), i.e. the gather form of
/// MatMulTransA. Writes every element of those rows, +0 when m = 0. Each
/// element is one fmadd chain over ascending i from +0: the reduction-row
/// blocking and the tile shapes change no bits.
void Avx2GemmTransACols(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, int64_t p0, int64_t p1);

/// C rows [i0, i1) of C(m×n) = A(m×k) · B(n×k)ᵀ (dot-product form of
/// MatMulTransB). Writes every element of those rows.
void Avx2GemmTransBRows(const float* a, const float* b, float* c, int64_t k,
                        int64_t n, int64_t i0, int64_t i1);

/// Y rows [r0, r1) of Y = CSR · X with X dense n×d (row-major, stride d).
/// Bit-identical to the scalar gather loop: ascending-k accumulation,
/// multiply-then-add. Writes every element of those rows. Also serves
/// SpMMTransposed via the cached CSC view (col_ptr / src_row / values).
void Avx2SpmmRows(const int64_t* row_ptr, const int32_t* col_idx,
                  const float* values, const float* x, float* y, int64_t d,
                  int64_t r0, int64_t r1);

/// Exact elementwise kernels over flat ranges (bit-identical to scalar).
void Avx2Add(const float* a, const float* b, float* dst, int64_t n);
void Avx2Sub(const float* a, const float* b, float* dst, int64_t n);
void Avx2MulEw(const float* a, const float* b, float* dst, int64_t n);
void Avx2Scale(const float* a, float s, float* dst, int64_t n);
/// a[i] += s * b[i] (unfused multiply-then-add, like the scalar loop).
void Avx2Axpy(float* a, float s, const float* b, int64_t n);
void Avx2Relu(const float* a, float* dst, int64_t n);
void Avx2ReluMask(const float* a, float* dst, int64_t n);
/// row[j] += r[j] (the bias-broadcast inner loop).
void Avx2AddRowInPlace(float* row, const float* r, int64_t n);

/// Softmax of rows [i0, i1) (row-major, stride cols). Vector max is exact;
/// exp uses a degree-5 polynomial (≈2 ulp vs expf) and the sum reduces
/// 8 lanes, so results are tolerance-bounded vs the scalar tier. Rows
/// narrower than one vector run the scalar sequence.
void Avx2SoftmaxRows(const float* src, float* dst, int64_t cols, int64_t i0,
                     int64_t i1);

/// out[k] = v[k] * dinv_row[r] * dinv_sqrt[col_idx[k]] for every stored
/// entry of rows [r0, r1) — the SymNormalize rescale, with a vector gather
/// on the column factor. `dinv_row` is dinv_sqrt offset to the first row of
/// a row-range view. Bit-identical to the scalar loop.
void Avx2SymNormalizeRows(const int64_t* row_ptr, const int32_t* col_idx,
                          const float* v, const float* dinv_row,
                          const float* dinv_sqrt, float* out, int64_t r0,
                          int64_t r1);

}  // namespace simd
}  // namespace mcond

#endif  // MCOND_CORE_SIMD_KERNELS_H_
