#ifndef MCOND_CORE_SIMD_H_
#define MCOND_CORE_SIMD_H_

#include <string>

/// Runtime-dispatched SIMD kernel tiers (docs/performance.md, "SIMD tier").
///
/// The hot dense/sparse kernels the compiler cannot derive from a plain
/// loop exist in two implementations:
///
///   kScalar — the portable loops that shipped with the parallel substrate.
///             Bit-identical to the serial::* / *Serial reference oracles at
///             every thread count; this is the exact-oracle tier that
///             check_determinism.sh and the bit-identity tests pin.
///   kAvx2   — AVX2+FMA microkernels (8-wide, register-tiled) compiled into
///             simd_kernels.cc when the toolchain targets x86-64. Selected
///             only when the CPU reports AVX2 *and* FMA at runtime.
///
/// Those are the GEMM tiles, MatMulTransA's column kernel, SpMM, SoftmaxRows
/// and the SymNormalize rescale; core/simd_kernels.h gives the reason each
/// stays hand-written. The elementwise ops (Add/Sub/Mul/Scale/AxpyInPlace/
/// Relu/ReluMask/AddRowBroadcast) are not tiered: each is one loop in
/// core/tensor_ops.cc that GCC compiles for the baseline ISA and for AVX2,
/// picked by CPU at load time, and both give the same bits.
///
/// Selection happens once, on the first ActiveTier() call, from the
/// MCOND_SIMD environment variable ("auto" | "avx2" | "scalar", default
/// auto) resolved against the CPUID probe. A request for an unsupported
/// tier downgrades gracefully to scalar (WARN log), never aborts. The
/// resolved tier is reported as one INFO log line and the
/// `mcond.simd.tier` gauge (0 = scalar, 1 = avx2), and can be overridden
/// programmatically (SetTier / SetTierFromSpec — tests, bench sweeps,
/// `mcond_cli --simd`).
///
/// Exactness contract per kernel family (tested in tests/simd_test.cc):
///
///   SpMM / SpMMTransposed, SymNormalize value rescaling:
///       bit-identical across tiers. The vector code keeps each output
///       element's operation sequence identical to the scalar loop (lanes
///       are independent elements; multiply-then-add, never fused; per-
///       element accumulation order preserved), so no bits change.
///
///   MatMul / MatMulTransA / MatMulTransB, SoftmaxRows:
///       tolerance-bounded. FMA fuses the multiply-add rounding step (each
///       GEMM element is one ascending fmadd chain from +0, the bits of a
///       std::fmaf chain), and SoftmaxRows' 8-lane reduction also reorders
///       its sum, so results differ from the scalar tier by O(k · eps)
///       relative error (k = reduction length; observed < 32 ulp for
///       k ≤ 1024 — see docs/performance.md for the bound and the property
///       tests that enforce it). Within ONE tier results remain
///       bit-identical at every thread count.

namespace mcond {
namespace simd {

/// A concrete kernel implementation set, ordered by preference.
enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// What the user asked for (MCOND_SIMD / --simd), before resolution.
enum class Request : int {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
};

/// Parses "auto" / "avx2" / "scalar" (case-sensitive, like MCOND_LOG_LEVEL).
/// Returns false and leaves *out untouched on anything else.
bool ParseRequest(const std::string& text, Request* out);

/// True iff the running CPU reports AVX2 and FMA (CPUID). Always false on
/// non-x86 builds.
bool CpuSupportsAvx2Fma();

/// True iff the AVX2 kernels were compiled into this binary (the build
/// found -mavx2 -mfma on an x86-64 target).
bool Avx2Compiled();

/// Pure resolution policy, exposed so tests can exercise the downgrade
/// paths without controlling the host CPU: an avx2 request on a CPU (or
/// build) without AVX2 resolves to kScalar — graceful downgrade, not
/// abort. kAuto picks the best supported tier.
Tier ResolveTier(Request request, bool cpu_supports, bool compiled);

/// The active tier. First call resolves MCOND_SIMD against the CPU probe,
/// sets the `mcond.simd.tier` gauge, and emits one INFO line; later calls
/// are a relaxed atomic load (cheap enough for per-kernel-call dispatch).
Tier ActiveTier();

/// Forces a tier (no support check — callers pass a tier they obtained
/// from ResolveTier or know is compiled; forcing kAvx2 on a CPU without
/// AVX2 is a programming error). Updates the gauge. Tests and bench
/// sweeps use this to pin the oracle or vector path.
void SetTier(Tier t);

/// Resolves a "auto|avx2|scalar" spec (the --simd flag) with graceful
/// downgrade and applies it. Returns false on an unparseable spec.
bool SetTierFromSpec(const std::string& spec);

/// "scalar" / "avx2".
const char* TierName(Tier t);

/// True iff the AVX2 kernels should be used right now. The single hot-path
/// dispatch predicate: kernels capture it once per call, outside their
/// parallel loops.
inline bool UseAvx2() { return ActiveTier() == Tier::kAvx2; }

}  // namespace simd
}  // namespace mcond

#endif  // MCOND_CORE_SIMD_H_
