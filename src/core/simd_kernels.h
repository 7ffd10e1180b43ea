#ifndef MCOND_CORE_SIMD_KERNELS_H_
#define MCOND_CORE_SIMD_KERNELS_H_

#include <cstdint>

/// The hand-written AVX2+FMA kernels behind the runtime tier dispatch
/// (core/simd.h): only those the compiler cannot derive from a plain loop.
/// The elementwise ops are plain loops in core/tensor_ops.cc whose AVX2
/// form GCC emits itself (target_clones). What stays here, and why:
///
///   Avx2GemmRows          FMA bits and 4×16 register tiles.
///   Avx2GemmTransACols    Folding it onto Avx2GemmRows over a packed Aᵀ
///                         keeps every bit, but read the `condense`
///                         benchmark's condense_s 10% slower (7 of 8 pairs).
///   Avx2SpmmRows          Its accumulators stay in registers across the
///                         row's gather.
///   Avx2SoftmaxRows       A polynomial exp.
///   Avx2SymNormalizeRows  A vector gather (not measured against a loop).
///
/// Each function computes the row range a scalar kernel chunk would, and
/// each output row's instruction sequence is a pure function of the row,
/// so results within the AVX2 tier are the same at any thread count.
///
/// Exactness (core/simd.h): SpMM and SymNormalize are bit-identical to
/// their scalar loops (independent lanes, multiply-then-add, per-element
/// order preserved; the file is compiled with -ffp-contract=off). Each GEMM
/// element is one fmadd chain over the ascending reduction index from +0,
/// whatever tile computes it: tolerance-bounded against the scalar tier,
/// bit-identical to a std::fmaf chain. Softmax also reduces 8 lanes and is
/// tolerance-bounded.
///
/// These symbols are only defined when the build compiles AVX2 code
/// (simd::Avx2Compiled()); callers must gate on simd::UseAvx2(), which
/// implies both compile-time and runtime support. GEMM column tails
/// narrower than a vector run masked lanes (MatMulTransA's run lanes over
/// output rows instead); the other kernels' tails fall back to scalar.

namespace mcond {
namespace simd {

/// C rows [i0, i1) of C(m×n) = A(m×k) · B(k×n). Writes every element of
/// those rows (C may be uninitialized), +0 when k = 0. 4×16 register
/// tiles, FMA, one masked tile for the last n mod 8 columns. MatMulTransB
/// runs it on a packed Bᵀ.
void Avx2GemmRows(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t i0, int64_t i1);

/// C rows [p0, p1) of C(k×n) = A(m×k)ᵀ · B(m×n), i.e. the gather form of
/// MatMulTransA. Writes every element of those rows, +0 when m = 0. Each
/// element is one fmadd chain over ascending i from +0: the reduction-row
/// blocking and the tile shapes change no bits.
void Avx2GemmTransACols(const float* a, const float* b, float* c, int64_t m,
                        int64_t k, int64_t n, int64_t p0, int64_t p1);

/// Y rows [r0, r1) of Y = CSR · X with X dense n×d (row-major, stride d).
/// Bit-identical to the scalar gather loop: ascending-k accumulation,
/// multiply-then-add. Writes every element of those rows. Also serves
/// SpMMTransposed via the cached CSC view (col_ptr / src_row / values).
void Avx2SpmmRows(const int64_t* row_ptr, const int32_t* col_idx,
                  const float* values, const float* x, float* y, int64_t d,
                  int64_t r0, int64_t r1);

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
