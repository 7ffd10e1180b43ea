#ifndef MCOND_CORE_BIT_DIGEST_H_
#define MCOND_CORE_BIT_DIGEST_H_

// Bit-level digests for the determinism gates: a byte-wise FNV-1a 64 fold
// over the exact bytes of a buffer, so any single-bit difference (one ULP,
// one index) changes the digest, and the one line format every `--smoke`
// bench prints for tools/check_determinism.sh.

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/tensor.h"

namespace mcond {

constexpr uint64_t kBitDigestSeed = 1469598103934665603ull;

/// Folds `bytes` raw bytes at `data` into the running digest `h`.
inline uint64_t FoldBytes(uint64_t h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

inline uint64_t FoldBits(uint64_t h, const float* data, int64_t count) {
  return FoldBytes(h, data, static_cast<size_t>(count) * sizeof(float));
}

inline uint64_t FoldBits(uint64_t h, const Tensor& t) {
  return FoldBits(h, t.data(), t.size());
}

inline uint64_t FoldBits(uint64_t h, const std::vector<float>& v) {
  return FoldBits(h, v.data(), static_cast<int64_t>(v.size()));
}

inline uint64_t BitDigest(const Tensor& t) {
  return FoldBits(kBitDigestSeed, t);
}

inline uint64_t BitDigest(const std::vector<float>& v) {
  return FoldBits(kBitDigestSeed, v);
}

/// Prints `digest <group> <variant> <hex>`. Within one run every line of a
/// group must carry the same digest, the group's first line being its
/// oracle; a group of one line uses the variant `value`.
inline void PrintDigest(const std::string& group, const char* variant,
                        uint64_t h) {
  std::printf("digest %s %s %016" PRIx64 "\n", group.c_str(), variant, h);
}

}  // namespace mcond

#endif  // MCOND_CORE_BIT_DIGEST_H_
