#!/usr/bin/env bash
# Fails if x86 intrinsics appear in src/ outside src/core/simd_kernels.cc.
# Hand-written vector code lives in that one file, behind the runtime SIMD
# tier (core/simd.h), and only for kernels whose bits differ from a plain
# loop's (GEMM, softmax). Every other kernel is one loop body that the
# compiler emits for each ISA (MCOND_VECTOR_CLONES). Matched: the header
# immintrin.h and the _mm256_ / _mm_ / __m256 / __m128 names.
#
# Usage: check_intrinsics.sh [repo_root]   (also run as a ctest entry)

set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
allowed='src/core/simd_kernels\.cc:'

matches=$(cd "$root" && grep -rn --include='*.cc' --include='*.h' -E \
  'immintrin\.h|_mm256_|_mm_|__m256|__m128' src | grep -Ev "^($allowed)")

if [ -n "$matches" ]; then
  echo "error: x86 intrinsics in src/ outside src/core/simd_kernels.cc —" \
       "write a plain or generic-vector loop and mark it" \
       "MCOND_VECTOR_CLONES (core/simd.h) instead:"
  echo "$matches"
  exit 1
fi
echo "OK: intrinsics only in src/core/simd_kernels.cc"
exit 0
