// SIMD tier dispatch and exactness contract (core/simd.h):
//
//  - resolution policy: auto picks the best supported tier; an avx2 request
//    on a host (or build) without AVX2 downgrades gracefully to scalar —
//    never aborts;
//  - exact kernels (elementwise, SpMM, normalize): bit-identical across
//    tiers;
//  - tolerance kernels (GEMM, softmax): vector-tier divergence bounded by
//    O(k·eps) relative error, across odd shapes (K not a multiple of the
//    vector width, single-row, empty);
//  - within the vector tier, MatMulTransA (and MatMulTransB at k < 8) is
//    exactly one fmaf chain per element, and the GEMM family is
//    bit-identical across pool widths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "core/csr_matrix.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace mcond {
namespace {

bool Avx2TierAvailable() {
  return simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma();
}

::testing::AssertionResult BitEqual(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (int64_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "bit mismatch at flat index " << i << ": " << a.data()[i]
             << " vs " << b.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Max |a-b| / max(1, |b|) over all elements — relative where values are
/// large, absolute near zero.
float MaxRelDiff(const Tensor& a, const Tensor& b) {
  float worst = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    const float scale = std::max(1.0f, std::fabs(b.data()[i]));
    worst = std::max(worst, d / scale);
  }
  return worst;
}

CsrMatrix RandomSparse(int64_t rows, int64_t cols, int64_t nnz_per_row,
                       Rng& rng) {
  std::vector<Triplet> t;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t k = 0; k < nnz_per_row; ++k) {
      t.push_back({r, rng.RandInt(0, cols - 1),
                   static_cast<float>(rng.RandInt(-8, 8)) * 0.25f});
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(t));
}

/// Saves and restores the active tier so test order never matters.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_tier_ = simd::ActiveTier(); }
  void TearDown() override {
    simd::SetTier(saved_tier_);
    ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
  }

 private:
  simd::Tier saved_tier_;
};

// ---------------------------------------------------------------------------
// Resolution policy (pure, host-independent).

TEST_F(SimdTest, ParseRequestAcceptsTheThreeSpecs) {
  simd::Request r = simd::Request::kAuto;
  EXPECT_TRUE(simd::ParseRequest("auto", &r));
  EXPECT_EQ(r, simd::Request::kAuto);
  EXPECT_TRUE(simd::ParseRequest("avx2", &r));
  EXPECT_EQ(r, simd::Request::kAvx2);
  EXPECT_TRUE(simd::ParseRequest("scalar", &r));
  EXPECT_EQ(r, simd::Request::kScalar);
}

TEST_F(SimdTest, ParseRequestRejectsJunkWithoutClobbering) {
  simd::Request r = simd::Request::kAvx2;
  EXPECT_FALSE(simd::ParseRequest("", &r));
  EXPECT_FALSE(simd::ParseRequest("AVX2", &r));  // case-sensitive
  EXPECT_FALSE(simd::ParseRequest("sse", &r));
  EXPECT_FALSE(simd::ParseRequest("avx512", &r));
  EXPECT_EQ(r, simd::Request::kAvx2);
}

TEST_F(SimdTest, ResolveTierDowngradesGracefully) {
  using simd::Request;
  using simd::Tier;
  // Explicit scalar always wins.
  EXPECT_EQ(simd::ResolveTier(Request::kScalar, true, true), Tier::kScalar);
  // avx2 requested but CPU lacks it: downgrade, not abort.
  EXPECT_EQ(simd::ResolveTier(Request::kAvx2, false, true), Tier::kScalar);
  // avx2 requested but the build has no AVX2 code: downgrade.
  EXPECT_EQ(simd::ResolveTier(Request::kAvx2, true, false), Tier::kScalar);
  // avx2 requested and available: honored.
  EXPECT_EQ(simd::ResolveTier(Request::kAvx2, true, true), Tier::kAvx2);
  // auto picks the best supported tier.
  EXPECT_EQ(simd::ResolveTier(Request::kAuto, true, true), Tier::kAvx2);
  EXPECT_EQ(simd::ResolveTier(Request::kAuto, false, true), Tier::kScalar);
  EXPECT_EQ(simd::ResolveTier(Request::kAuto, true, false), Tier::kScalar);
}

TEST_F(SimdTest, SetTierFromSpecAppliesAndReportsGauge) {
  EXPECT_FALSE(simd::SetTierFromSpec("quantum"));

  EXPECT_TRUE(simd::SetTierFromSpec("scalar"));
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  EXPECT_EQ(obs::GetGauge("mcond.simd.tier").Value(), 0.0);
  EXPECT_STREQ(simd::TierName(simd::ActiveTier()), "scalar");

  // An avx2 spec resolves against the real host: either honored (gauge 1)
  // or downgraded to scalar (gauge 0) — never a crash.
  EXPECT_TRUE(simd::SetTierFromSpec("avx2"));
  if (Avx2TierAvailable()) {
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kAvx2);
    EXPECT_EQ(obs::GetGauge("mcond.simd.tier").Value(), 1.0);
    EXPECT_STREQ(simd::TierName(simd::ActiveTier()), "avx2");
  } else {
    EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
    EXPECT_EQ(obs::GetGauge("mcond.simd.tier").Value(), 0.0);
  }

  EXPECT_TRUE(simd::SetTierFromSpec("auto"));
  EXPECT_EQ(simd::ActiveTier(), Avx2TierAvailable() ? simd::Tier::kAvx2
                                                    : simd::Tier::kScalar);
}

// ---------------------------------------------------------------------------
// MCOND_SIMD startup forcing. The env var is consumed once, at the first
// ActiveTier() call, so the only honest way to test it is a fresh process:
// re-exec this binary filtered to the child test below with MCOND_SIMD set
// and the expected resolution in MCOND_SIMD_EXPECT.

// Child half: asserts the startup-resolved tier matches the parent's
// expectation. Trivially passes when run directly (no expectation set).
TEST_F(SimdTest, EnvChildReportsStartupTier) {
  const char* expect = std::getenv("MCOND_SIMD_EXPECT");
  if (expect == nullptr) GTEST_SKIP() << "parent-driven subprocess test";
  EXPECT_STREQ(simd::TierName(simd::ActiveTier()), expect);
}

TEST_F(SimdTest, EnvVarForcesTierAtProcessStartup) {
#if !defined(__linux__)
  GTEST_SKIP() << "needs /proc/self/exe";
#else
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  ASSERT_GT(len, 0);
  exe[len] = '\0';
  const std::string avail =
      Avx2TierAvailable() ? "avx2" : "scalar";
  struct Case {
    const char* env;
    std::string expect;
  };
  const Case cases[] = {
      {"scalar", "scalar"},
      // avx2 request: honored where available, graceful scalar downgrade
      // (not an abort) otherwise.
      {"avx2", avail},
      {"auto", avail},
      // Unparseable spec: WARN + auto, never a crash.
      {"definitely-not-a-tier", avail},
  };
  for (const Case& c : cases) {
    const std::string cmd =
        std::string("MCOND_SIMD='") + c.env + "' MCOND_SIMD_EXPECT='" +
        c.expect + "' '" + exe +
        "' --gtest_filter=SimdTest.EnvChildReportsStartupTier >/dev/null 2>&1";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << "MCOND_SIMD=" << c.env;
  }
#endif
}

// ---------------------------------------------------------------------------
// Exact kernels: bit-identical across tiers.

TEST_F(SimdTest, ElementwiseBitIdenticalAcrossTiers) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  Rng rng(101);
  // Odd sizes: sub-vector, vector+tail, large.
  for (int64_t cols : {1, 7, 8, 9, 67, 256}) {
    const Tensor a = rng.NormalTensor(5, cols);
    const Tensor b = rng.NormalTensor(5, cols);
    const Tensor bias = rng.NormalTensor(1, cols);

    simd::SetTier(simd::Tier::kScalar);
    const Tensor add_s = Add(a, b);
    const Tensor sub_s = Sub(a, b);
    const Tensor mul_s = Mul(a, b);
    const Tensor scale_s = Scale(a, 1.7f);
    const Tensor relu_s = Relu(a);
    const Tensor mask_s = ReluMask(a);
    const Tensor bias_s = AddRowBroadcast(a, bias);
    Tensor axpy_s = a;
    AxpyInPlace(axpy_s, 0.3f, b);

    simd::SetTier(simd::Tier::kAvx2);
    EXPECT_TRUE(BitEqual(Add(a, b), add_s)) << "cols " << cols;
    EXPECT_TRUE(BitEqual(Sub(a, b), sub_s)) << "cols " << cols;
    EXPECT_TRUE(BitEqual(Mul(a, b), mul_s)) << "cols " << cols;
    EXPECT_TRUE(BitEqual(Scale(a, 1.7f), scale_s)) << "cols " << cols;
    EXPECT_TRUE(BitEqual(Relu(a), relu_s)) << "cols " << cols;
    EXPECT_TRUE(BitEqual(ReluMask(a), mask_s)) << "cols " << cols;
    EXPECT_TRUE(BitEqual(AddRowBroadcast(a, bias), bias_s)) << "cols " << cols;
    Tensor axpy_v = a;
    AxpyInPlace(axpy_v, 0.3f, b);
    EXPECT_TRUE(BitEqual(axpy_v, axpy_s)) << "cols " << cols;
  }
}

TEST_F(SimdTest, ReluHandlesSignedZeroAndNanLikeScalar) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  Tensor a(1, 9);
  const float vals[] = {-0.0f, 0.0f, -1.0f, 2.0f,
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::denorm_min(), -3.5f};
  std::memcpy(a.data(), vals, sizeof(vals));
  simd::SetTier(simd::Tier::kScalar);
  const Tensor relu_s = Relu(a);
  const Tensor mask_s = ReluMask(a);
  simd::SetTier(simd::Tier::kAvx2);
  EXPECT_TRUE(BitEqual(Relu(a), relu_s));
  EXPECT_TRUE(BitEqual(ReluMask(a), mask_s));
}

TEST_F(SimdTest, SpmmBitIdenticalAcrossTiers) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  Rng rng(202);
  for (int64_t d : {1, 5, 8, 33, 100}) {
    const CsrMatrix m = RandomSparse(40, 30, 4, rng);
    const Tensor x = rng.NormalTensor(30, d);
    const Tensor xt = rng.NormalTensor(40, d);
    simd::SetTier(simd::Tier::kScalar);
    const Tensor y_s = m.SpMM(x);
    const Tensor yt_s = m.SpMMTransposed(xt);
    simd::SetTier(simd::Tier::kAvx2);
    EXPECT_TRUE(BitEqual(m.SpMM(x), y_s)) << "d " << d;
    EXPECT_TRUE(BitEqual(m.SpMMTransposed(xt), yt_s)) << "d " << d;
    // And both match the serial oracle (the scalar tier already does, by
    // parallel_test — this closes the triangle for the vector tier).
    EXPECT_TRUE(BitEqual(m.SpMM(x), m.SpMMSerial(x))) << "d " << d;
  }
}

TEST_F(SimdTest, NormalizeBitIdenticalAcrossTiers) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  Rng rng(303);
  const CsrMatrix a = RandomSparse(50, 50, 5, rng);
  simd::SetTier(simd::Tier::kScalar);
  const CsrMatrix sym_s = SymNormalize(a);
  const CsrMatrix row_s = RowNormalize(a);
  simd::SetTier(simd::Tier::kAvx2);
  const CsrMatrix sym_v = SymNormalize(a);
  const CsrMatrix row_v = RowNormalize(a);
  ASSERT_EQ(sym_s.Nnz(), sym_v.Nnz());
  ASSERT_EQ(row_s.Nnz(), row_v.Nnz());
  for (size_t k = 0; k < sym_s.values().size(); ++k) {
    EXPECT_EQ(std::memcmp(&sym_s.values()[k], &sym_v.values()[k],
                          sizeof(float)),
              0)
        << "sym nnz " << k;
  }
  for (size_t k = 0; k < row_s.values().size(); ++k) {
    EXPECT_EQ(std::memcmp(&row_s.values()[k], &row_v.values()[k],
                          sizeof(float)),
              0)
        << "row nnz " << k;
  }
}

// ---------------------------------------------------------------------------
// Tolerance kernels: property tests over odd shapes.

struct GemmShape {
  int64_t m, k, n;
};

// K not a multiple of the vector width (7, 129), single-row, single-col,
// empty-K, and a blocked shape.
const GemmShape kOddShapes[] = {{1, 1, 1},  {1, 7, 1},   {3, 129, 5},
                                {1, 64, 1}, {17, 7, 23}, {5, 0, 4},
                                {2, 8, 16}, {64, 100, 48}};

/// FMA + 8-lane reduction reorder at most O(k) roundings of eps each;
/// 64·eps·k is a comfortably safe envelope that still catches real bugs
/// (a wrong element is off by O(1), ~1e7 times this bound for small k).
float GemmTolerance(int64_t k) {
  return 64.0f * std::numeric_limits<float>::epsilon() *
         static_cast<float>(std::max<int64_t>(k, 1));
}

TEST_F(SimdTest, GemmToleranceBoundedAcrossOddShapes) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  Rng rng(404);
  for (const GemmShape& s : kOddShapes) {
    const Tensor a = rng.NormalTensor(s.m, s.k);
    const Tensor b = rng.NormalTensor(s.k, s.n);
    const Tensor at = rng.NormalTensor(s.k, s.m);
    const Tensor bt = rng.NormalTensor(s.n, s.k);
    simd::SetTier(simd::Tier::kAvx2);
    const Tensor mm = MatMul(a, b);
    const Tensor ta = MatMulTransA(at, b);
    const Tensor tb = MatMulTransB(a, bt);
    const float tol = GemmTolerance(s.k);
    EXPECT_LE(MaxRelDiff(mm, serial::MatMul(a, b)), tol)
        << s.m << "x" << s.k << "x" << s.n;
    // TransA reduces over m, not k.
    EXPECT_LE(MaxRelDiff(ta, serial::MatMulTransA(at, b)), GemmTolerance(s.m))
        << "transA " << s.m << "x" << s.k << "x" << s.n;
    EXPECT_LE(MaxRelDiff(tb, serial::MatMulTransB(a, bt)), tol)
        << "transB " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_F(SimdTest, SoftmaxToleranceBoundedAcrossOddShapes) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  Rng rng(505);
  // Rows sum to 1 so absolute error is the right scale; the vector exp is
  // ≈2 ulp and the lane-sum reorders ~cols roundings.
  for (int64_t cols : {1, 2, 7, 8, 9, 31, 257}) {
    const Tensor a = rng.NormalTensor(9, cols);
    simd::SetTier(simd::Tier::kAvx2);
    const Tensor v = SoftmaxRows(a);
    const Tensor s = serial::SoftmaxRows(a);
    const float tol = 1e-5f + 1e-6f * static_cast<float>(cols);
    EXPECT_LE(MaxRelDiff(v, s), tol) << "cols " << cols;
    // Rows still normalize to 1 within float tolerance.
    for (int64_t i = 0; i < v.rows(); ++i) {
      float sum = 0.0f;
      for (int64_t j = 0; j < cols; ++j) sum += v.RowData(i)[j];
      EXPECT_NEAR(sum, 1.0f, 1e-4f) << "row " << i << " cols " << cols;
    }
  }
}

// ---------------------------------------------------------------------------
// The AVX2 MatMulTransA tiles, row blocks and column tails reorder only
// independent fmadd chains: each output element is exactly one fmaf chain
// over ascending i from +0. Likewise each MatMulTransB element at k < 8.

/// c[p][j] = fmaf chain over i of at[i][p] * b[i][j], from +0.
Tensor TransAFmaChain(const Tensor& at, const Tensor& b) {
  Tensor c(at.cols(), b.cols());
  for (int64_t p = 0; p < c.rows(); ++p) {
    for (int64_t j = 0; j < c.cols(); ++j) {
      float s = 0.0f;
      for (int64_t i = 0; i < at.rows(); ++i) {
        s = std::fmaf(at.RowData(i)[p], b.RowData(i)[j], s);
      }
      c.RowData(p)[j] = s;
    }
  }
  return c;
}

/// c[i][j] = fmaf chain over p of a[i][p] * bt[j][p], from +0.
Tensor TransBFmaChain(const Tensor& a, const Tensor& bt) {
  Tensor c(a.rows(), bt.rows());
  for (int64_t i = 0; i < c.rows(); ++i) {
    for (int64_t j = 0; j < c.cols(); ++j) {
      float s = 0.0f;
      for (int64_t p = 0; p < a.cols(); ++p) {
        s = std::fmaf(a.RowData(i)[p], bt.RowData(j)[p], s);
      }
      c.RowData(i)[j] = s;
    }
  }
  return c;
}

TEST_F(SimdTest, TransAEqualsAscendingFmaChainOnVectorTier) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  simd::SetTier(simd::Tier::kAvx2);
  Rng rng(707);
  // m crosses the 256-row reduction block; k covers the 4-row tiles and
  // their 1–3-row tails; n covers the 16- and 8-wide column tiles and the
  // lanes-over-rows tail columns.
  for (int64_t m : {0, 1, 255, 256, 257, 1000}) {
    for (int64_t k : {1, 3, 4, 5, 192}) {
      for (int64_t n : {1, 7, 8, 15, 16, 17, 64}) {
        const Tensor at = rng.NormalTensor(m, k);
        const Tensor b = rng.NormalTensor(m, n);
        EXPECT_TRUE(BitEqual(MatMulTransA(at, b), TransAFmaChain(at, b)))
            << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST_F(SimdTest, NarrowTransBEqualsAscendingFmaChainOnVectorTier) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  simd::SetTier(simd::Tier::kAvx2);
  Rng rng(808);
  for (int64_t k : {0, 1, 2, 7}) {
    for (int64_t n : {1, 7, 8, 17, 64}) {
      const Tensor a = rng.NormalTensor(33, k);
      const Tensor bt = rng.NormalTensor(n, k);
      EXPECT_TRUE(BitEqual(MatMulTransB(a, bt), TransBFmaChain(a, bt)))
          << "k " << k << " n " << n;
    }
  }
}

TEST_F(SimdTest, GemmFamilyBitIdenticalAcrossPoolWidthsOnVectorTier) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  simd::SetTier(simd::Tier::kAvx2);
  Rng rng(909);
  const Tensor a = rng.NormalTensor(301, 257);
  const Tensor b = rng.NormalTensor(257, 129);
  const Tensor bt = rng.NormalTensor(129, 257);
  const Tensor at = rng.NormalTensor(257, 301);
  // The generator's backward shapes, scaled down: tall-skinny TransA into
  // 64 and 1 columns, and TransB at k = 1.
  const Tensor pairs = rng.NormalTensor(2304, 192);
  const Tensor hidden = rng.NormalTensor(2304, 64);
  const Tensor score = rng.NormalTensor(2304, 1);
  const Tensor w2 = rng.NormalTensor(64, 1);
  std::vector<Tensor> ref;
  for (int width : {1, 2, 8}) {
    ThreadPool::Global().SetNumThreads(width);
    const std::vector<Tensor> out = {
        MatMul(a, b),
        MatMulTransA(at, b),
        MatMulTransB(a, bt),
        MatMulTransA(pairs, hidden),
        MatMulTransA(hidden, score),
        MatMulTransB(score, w2),
    };
    if (ref.empty()) {
      ref = out;
      continue;
    }
    for (size_t t = 0; t < out.size(); ++t) {
      EXPECT_TRUE(BitEqual(out[t], ref[t])) << "product " << t << " width "
                                            << width;
    }
  }
}

TEST_F(SimdTest, EmptyAndDegenerateShapesSafeOnVectorTier) {
  if (!Avx2TierAvailable()) GTEST_SKIP() << "AVX2 tier unavailable";
  simd::SetTier(simd::Tier::kAvx2);
  Rng rng(606);
  // Empty K: GEMM over a zero-length reduction must produce zeros.
  const Tensor a0 = rng.NormalTensor(3, 0);
  const Tensor b0 = rng.NormalTensor(0, 4);
  const Tensor c0 = MatMul(a0, b0);
  for (int64_t i = 0; i < c0.size(); ++i) EXPECT_EQ(c0.data()[i], 0.0f);
  // The transposed forms write uninitialized outputs; freeing a NaN-filled
  // tensor of the same size first makes stale memory likely to show.
  const auto expect_positive_zeros = [](const Tensor& c, int64_t rows,
                                        int64_t cols, const char* what) {
    ASSERT_EQ(c.rows(), rows) << what;
    ASSERT_EQ(c.cols(), cols) << what;
    for (int64_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c.data()[i], 0.0f) << what << " at " << i;
      EXPECT_FALSE(std::signbit(c.data()[i])) << what << " at " << i;
    }
  };
  for (int64_t k : {5, 64}) {
    for (int64_t n : {1, 7, 16, 17}) {
      { Tensor stale = Tensor::Full(k, n, std::nanf("")); }
      // MatMulTransA with m = 0: k×n zeros.
      expect_positive_zeros(MatMulTransA(Tensor(0, k), Tensor(0, n)), k, n,
                            "transA m=0");
      { Tensor stale = Tensor::Full(k, n, std::nanf("")); }
      // MatMulTransB with an empty reduction (k = 0): k×n zeros too.
      expect_positive_zeros(MatMulTransB(Tensor(k, 0), Tensor(n, 0)), k, n,
                            "transB k=0");
    }
  }
  // Zero-row and zero-col tensors pass through elementwise unharmed.
  const Tensor e = Tensor(0, 5);
  EXPECT_EQ(Add(e, e).size(), 0);
  EXPECT_EQ(Relu(e).size(), 0);
  // Single-element softmax is exactly 1.
  Tensor one(1, 1);
  one.data()[0] = -3.25f;
  EXPECT_EQ(SoftmaxRows(one).data()[0], 1.0f);
}

}  // namespace
}  // namespace mcond
