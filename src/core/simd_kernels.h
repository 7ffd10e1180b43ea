#ifndef MCOND_CORE_SIMD_KERNELS_H_
#define MCOND_CORE_SIMD_KERNELS_H_

#include <cstdint>

/// The hand-written AVX2+FMA kernels behind the runtime tier dispatch
/// (core/simd.h): only those whose bits differ from a plain loop's, or that
/// the compiler cannot derive from one. SpMM, the SymNormalize rescale and
/// the elementwise ops are single loop bodies that GCC compiles for AVX2
/// itself (MCOND_VECTOR_CLONES) and have no tier. What stays here, and why:
///
///   Avx2GemmRows          FMA bits and 4×16 register tiles.
///   Avx2GemmTransACols    Folding it onto Avx2GemmRows over a packed Aᵀ
///                         keeps every bit, but read the `condense`
///                         benchmark's condense_s 10% slower (7 of 8 pairs).
///   Avx2SoftmaxRows       A polynomial exp.
///
/// Each function computes the row range a scalar kernel chunk would, and
/// each output row's instruction sequence is a pure function of the row,
/// so results within the AVX2 tier are the same at any thread count.
///
/// Exactness (core/simd.h): each GEMM element is one fmadd chain over the
/// ascending reduction index from +0, whatever tile computes it:
/// tolerance-bounded against the scalar tier, bit-identical to a std::fmaf
/// chain. Softmax also reduces 8 lanes and is tolerance-bounded.
///
/// These symbols are only defined when the build compiles AVX2 code
/// (simd::Avx2Compiled()); callers must gate on simd::UseAvx2(), which
/// implies both compile-time and runtime support. GEMM column tails
/// narrower than a vector run masked lanes (MatMulTransA's run lanes over
/// output rows instead); softmax's tail columns run the scalar sequence.

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

/// Softmax of rows [i0, i1) (row-major, stride cols). Vector max is exact;
/// exp uses a degree-5 polynomial (≈2 ulp vs expf) and the sum reduces
/// 8 lanes, so results are tolerance-bounded vs the scalar tier. Needs
/// cols ≥ 8: SoftmaxRows sends narrower rows to its scalar body.
void Avx2SoftmaxRows(const float* src, float* dst, int64_t cols, int64_t i0,
                     int64_t i1);

}  // namespace simd
}  // namespace mcond

#endif  // MCOND_CORE_SIMD_KERNELS_H_
