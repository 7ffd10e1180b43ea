// Micro-benchmarks (google-benchmark) backing the complexity analysis of
// §III-E: the forward-pass kernels scale with deployed-graph size, which is
// exactly what shrinks when serving moves from the original graph (N) to
// the synthetic graph (N'). Also covers the serving-path pieces: aM
// conversion, block composition, and normalization.
//
// Extra modes:
//   bench_kernels --smoke
//       Runs one fixed instance of each parallel kernel and prints one
//       `digest <kernel> value <hex>` line per kernel on the SIMD tier
//       MCOND_SIMD selects. tools/check_determinism.sh requires every line
//       identical across thread widths and prefetch depths
//       (docs/performance.md).
//   BM_*Threads benchmarks sweep the pool width (the Arg is the thread
//       count; 0 means the default width) for the speedup table in
//       BENCH_kernels.json.
//   BM_*Simd benchmarks sweep the SIMD tier (the Arg: 0 scalar, 1 avx2)
//       for the scalar-vs-vector rows in BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "core/bit_digest.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "graph/compose.h"
#include "nn/module.h"
#include "nn/sgc.h"

namespace mcond {
namespace {

Graph MakeGraph(int64_t n, double avg_degree = 16.0) {
  SbmConfig config;
  config.num_nodes = n;
  config.num_classes = 8;
  config.feature_dim = 64;
  config.avg_degree = avg_degree;
  Rng rng(1);
  return GenerateSbmGraph(config, rng);
}

void BM_SpMM(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  const Tensor& x = g.features();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.normalized_adjacency().SpMM(x));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SpMM)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_DenseMatMul(benchmark::State& state) {
  Rng rng(2);
  const int64_t n = state.range(0);
  Tensor a = rng.NormalTensor(n, 64);
  Tensor b = rng.NormalTensor(64, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DenseMatMul)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_SgcForward(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  Rng rng(3);
  GnnConfig config;
  Sgc model(g.FeatureDim(), g.num_classes(), config, rng);
  GraphOperators ops_ctx = GraphOperators::FromGraph(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(ops_ctx, g.features(), rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SgcForward)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_ComposeAndNormalize(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  // A batch of n/10 incoming nodes with ~8 links each.
  const int64_t n_new = state.range(0) / 10;
  Rng rng(4);
  std::vector<Triplet> links;
  for (int64_t i = 0; i < n_new; ++i) {
    for (int64_t k = 0; k < 8; ++k) {
      links.push_back({i, rng.RandInt(0, g.NumNodes() - 1), 1.0f});
    }
  }
  CsrMatrix a = CsrMatrix::FromTriplets(n_new, g.NumNodes(), links);
  CsrMatrix inter = CsrMatrix::FromTriplets(n_new, n_new, {});
  for (auto _ : state) {
    CsrMatrix composed = ComposeBlockAdjacency(g.adjacency(), a, inter);
    benchmark::DoNotOptimize(SymNormalize(composed));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComposeAndNormalize)->Range(256, 4096)->Complexity(benchmark::oN);

void BM_MappingConversion(benchmark::State& state) {
  // links (n×N) · mapping (N×N'): the per-batch aM cost of Eq. (11).
  const int64_t n_orig = state.range(0);
  const int64_t n_new = 200;
  const int64_t n_syn = 64;
  Rng rng(5);
  std::vector<Triplet> links;
  for (int64_t i = 0; i < n_new; ++i) {
    for (int64_t k = 0; k < 8; ++k) {
      links.push_back({i, rng.RandInt(0, n_orig - 1), 1.0f});
    }
  }
  CsrMatrix a = CsrMatrix::FromTriplets(n_new, n_orig, links);
  std::vector<Triplet> map_t;
  for (int64_t i = 0; i < n_orig; ++i) {
    for (int64_t k = 0; k < 4; ++k) {
      map_t.push_back({i, rng.RandInt(0, n_syn - 1), 0.25f});
    }
  }
  CsrMatrix mapping = CsrMatrix::FromTriplets(n_orig, n_syn, map_t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrMatrix::Multiply(a, mapping));
  }
  state.SetComplexityN(n_orig);
}
BENCHMARK(BM_MappingConversion)->Range(1024, 8192);

void BM_DenseVsSparseDeployment(benchmark::State& state) {
  // End-to-end serving-cost contrast at a fixed batch size: range(0)==0
  // serves on a large original-style graph, ==1 on a small synthetic-style
  // graph. The ratio of the two timings is the Fig. 3/4 speedup mechanism.
  const bool synthetic = state.range(0) == 1;
  Graph g = MakeGraph(synthetic ? 64 : 4096, synthetic ? 8.0 : 32.0);
  Rng rng(6);
  GnnConfig config;
  Sgc model(g.FeatureDim(), g.num_classes(), config, rng);
  const int64_t n_new = 100;
  std::vector<Triplet> links;
  for (int64_t i = 0; i < n_new; ++i) {
    for (int64_t k = 0; k < 6; ++k) {
      links.push_back({i, rng.RandInt(0, g.NumNodes() - 1), 1.0f});
    }
  }
  CsrMatrix a = CsrMatrix::FromTriplets(n_new, g.NumNodes(), links);
  CsrMatrix inter = CsrMatrix::FromTriplets(n_new, n_new, {});
  Tensor batch_x = rng.NormalTensor(n_new, g.FeatureDim());
  for (auto _ : state) {
    CsrMatrix composed = ComposeBlockAdjacency(g.adjacency(), a, inter);
    GraphOperators ops_ctx = GraphOperators::FromAdjacency(composed);
    Tensor features = ConcatRows(g.features(), batch_x);
    benchmark::DoNotOptimize(model.Predict(ops_ctx, features, rng));
  }
}
BENCHMARK(BM_DenseVsSparseDeployment)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"synthetic"});

// ---- Thread-count sweeps (the tentpole speedup measurements). ----
//
// The Arg is the pool width; 0 selects the default (MCOND_NUM_THREADS or
// hardware concurrency). Each benchmark restores the default width on exit
// so orderings don't leak across benchmarks.

void SetPoolWidth(int64_t arg) {
  ThreadPool::Global().SetNumThreads(
      arg == 0 ? ThreadPool::DefaultNumThreads() : static_cast<int>(arg));
}

void BM_GemmThreads(benchmark::State& state) {
  SetPoolWidth(state.range(0));
  Rng rng(21);
  const Tensor a = rng.NormalTensor(1024, 1024);
  const Tensor b = rng.NormalTensor(1024, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 1024 * 1024 * 256);
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->ArgNames({"threads"})->Unit(benchmark::kMillisecond);

void BM_GemmSerialRef(benchmark::State& state) {
  // The naive single-threaded reference: the speedup denominator that
  // includes the blocking win, not just the threading win.
  Rng rng(21);
  const Tensor a = rng.NormalTensor(1024, 1024);
  const Tensor b = rng.NormalTensor(1024, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serial::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 1024 * 1024 * 256);
}
BENCHMARK(BM_GemmSerialRef)->Unit(benchmark::kMillisecond);

void BM_GemmTransAThreads(benchmark::State& state) {
  SetPoolWidth(state.range(0));
  Rng rng(22);
  const Tensor a = rng.NormalTensor(1024, 256);
  const Tensor b = rng.NormalTensor(1024, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransA(a, b));
  }
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}
BENCHMARK(BM_GemmTransAThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->ArgNames({"threads"})->Unit(benchmark::kMillisecond);

void BM_SpMMThreads(benchmark::State& state) {
  // Reddit-shaped (scaled): dense-ish power-law-free SBM with a high mean
  // degree, the regime the serving path hits on the original graph.
  SetPoolWidth(state.range(0));
  SbmConfig config;
  config.num_nodes = 16384;
  config.num_classes = 8;
  config.feature_dim = 128;
  config.avg_degree = 50.0;
  Rng rng(23);
  Graph g = GenerateSbmGraph(config, rng);
  const Tensor& x = g.features();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.normalized_adjacency().SpMM(x));
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          g.normalized_adjacency().Nnz() *
                          config.feature_dim);
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}
BENCHMARK(BM_SpMMThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->ArgNames({"threads"})->Unit(benchmark::kMillisecond);

void BM_SoftmaxThreads(benchmark::State& state) {
  SetPoolWidth(state.range(0));
  Rng rng(24);
  const Tensor a = rng.NormalTensor(65536, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(a));
  }
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}
BENCHMARK(BM_SoftmaxThreads)->Arg(1)->Arg(0)->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

// ---- SIMD tier sweeps (scalar vs AVX2 at a fixed pool width). ----
//
// The Arg is the tier (0 = scalar, 1 = avx2); avx2 variants skip with an
// error note on hosts/builds without AVX2+FMA rather than aborting, so the
// suite runs everywhere. Each benchmark restores the startup-resolved tier
// on exit.

bool EnterTier(benchmark::State& state) {
  if (state.range(0) == 1 &&
      !(simd::Avx2Compiled() && simd::CpuSupportsAvx2Fma())) {
    state.SkipWithError("AVX2 tier unavailable on this host/build");
    return false;
  }
  simd::SetTier(state.range(0) == 1 ? simd::Tier::kAvx2
                                    : simd::Tier::kScalar);
  return true;
}

void BM_GemmSimd(benchmark::State& state) {
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  Rng rng(21);
  const Tensor a = rng.NormalTensor(1024, 1024);
  const Tensor b = rng.NormalTensor(1024, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 1024 * 1024 * 256);
  simd::SetTier(saved);
}
BENCHMARK(BM_GemmSimd)->Arg(0)->Arg(1)->ArgNames({"avx2"})
    ->Unit(benchmark::kMillisecond);

void BM_GemmTransBSimd(benchmark::State& state) {
  // The autograd backward shape (grad · Wᵀ): dot-product form.
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  Rng rng(25);
  const Tensor a = rng.NormalTensor(1024, 256);
  const Tensor bt = rng.NormalTensor(1024, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(a, bt));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 1024 * 256 * 1024);
  simd::SetTier(saved);
}
BENCHMARK(BM_GemmTransBSimd)->Arg(0)->Arg(1)->ArgNames({"avx2"})
    ->Unit(benchmark::kMillisecond);

// The adjacency generator's (MLP_Φ, Eq. 6) backward GEMMs on reddit-sim:
// d = 96 features, h = 64 hidden units, 1 score, at the condense workload's
// N' = 96 and the CLI default ratio's N' = 240. The first layer runs
// factored on N'×d operands; the score layer runs on all N'² pair rows.
// Args: tier, then the m, k, n of the product.

void BM_GeneratorTransASimd(benchmark::State& state) {
  // Weight gradients (m×k)ᵀ·(m×n): the first layer's X'ᵀ·dU at m = N',
  // k = 96, n = 64 and the score layer at m = N'² = 9216, k = 64, n = 1.
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  const int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(27);
  const Tensor a = rng.NormalTensor(m, k);
  const Tensor b = rng.NormalTensor(m, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  simd::SetTier(saved);
}
BENCHMARK(BM_GeneratorTransASimd)
    ->ArgsProduct({{0, 1}, {96, 240}, {96}, {64}})
    ->ArgsProduct({{0, 1}, {9216}, {64}, {1}})
    ->ArgNames({"avx2", "m", "k", "n"})
    ->Unit(benchmark::kMillisecond);

void BM_GeneratorTransBSimd(benchmark::State& state) {
  // Input gradients (m×k)·(n×k)ᵀ: the first layer's dU·W_aᵀ back to X' at
  // m = N', k = 64, n = 96 and the score gradient back to the hidden layer
  // at m = N'² = 9216, k = 1, n = 64.
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  const int64_t m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(28);
  const Tensor a = rng.NormalTensor(m, k);
  const Tensor bt = rng.NormalTensor(n, k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(a, bt));
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  simd::SetTier(saved);
}
BENCHMARK(BM_GeneratorTransBSimd)
    ->ArgsProduct({{0, 1}, {96, 240}, {64}, {96}})
    ->ArgsProduct({{0, 1}, {9216}, {1}, {64}})
    ->ArgNames({"avx2", "m", "k", "n"})
    ->Unit(benchmark::kMillisecond);

void BM_PairSum(benchmark::State& state) {
  // The generator's factored first layer, forward plus both gradients:
  // N'×64 operands, N'²×64 pair rows. The upstream gradient moves in and
  // out of the node so no copy is timed.
  const int64_t n = state.range(0), h = 64;
  Rng rng(29);
  Variable u = MakeVariable(rng.NormalTensor(n, h), /*requires_grad=*/true);
  Variable v = MakeVariable(rng.NormalTensor(n, h), /*requires_grad=*/true);
  Tensor upstream = rng.NormalTensor(n * n, h);
  for (auto _ : state) {
    Variable p = ops::PairSum(u, v);
    p->mutable_grad() = std::move(upstream);
    p->backward_fn()();
    upstream = std::move(p->mutable_grad());
    benchmark::DoNotOptimize(u->grad().data());
    benchmark::DoNotOptimize(v->grad().data());
    u->ZeroGrad();
    v->ZeroGrad();
  }
  // One write (forward) and two reads (dU, dV) of the N'²×h pair rows.
  state.SetBytesProcessed(state.iterations() * 3 * n * n * h *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_PairSum)->Arg(96)->Arg(240)->ArgNames({"n"})
    ->Unit(benchmark::kMicrosecond);

void BM_SpMMSimd(benchmark::State& state) {
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  SbmConfig config;
  config.num_nodes = 16384;
  config.num_classes = 8;
  config.feature_dim = 128;
  config.avg_degree = 50.0;
  Rng rng(23);
  Graph g = GenerateSbmGraph(config, rng);
  const Tensor& x = g.features();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.normalized_adjacency().SpMM(x));
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          g.normalized_adjacency().Nnz() *
                          config.feature_dim);
  simd::SetTier(saved);
}
BENCHMARK(BM_SpMMSimd)->Arg(0)->Arg(1)->ArgNames({"avx2"})
    ->Unit(benchmark::kMillisecond);

void BM_SoftmaxSimd(benchmark::State& state) {
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  Rng rng(24);
  const Tensor a = rng.NormalTensor(65536, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxRows(a));
  }
  simd::SetTier(saved);
}
BENCHMARK(BM_SoftmaxSimd)->Arg(0)->Arg(1)->ArgNames({"avx2"})
    ->Unit(benchmark::kMillisecond);

void BM_ElementwiseSimd(benchmark::State& state) {
  const simd::Tier saved = simd::ActiveTier();
  if (!EnterTier(state)) return;
  Rng rng(26);
  const Tensor a = rng.NormalTensor(4096, 256);
  const Tensor b = rng.NormalTensor(4096, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Relu(Add(Mul(a, b), b)));
  }
  simd::SetTier(saved);
}
BENCHMARK(BM_ElementwiseSimd)->Arg(0)->Arg(1)->ArgNames({"avx2"})
    ->Unit(benchmark::kMillisecond);

// ---- Smoke / digest mode. ----

int RunSmoke() {
  std::printf("threads %d\n", ThreadPool::Global().NumThreads());
  std::printf("simd %s\n", simd::TierName(simd::ActiveTier()));
  Rng rng(99);
  const Tensor a = rng.NormalTensor(301, 257);
  const Tensor b = rng.NormalTensor(257, 129);
  const Tensor bt = rng.NormalTensor(129, 257);
  const Tensor at = rng.NormalTensor(257, 301);
  PrintDigest("matmul", "value", BitDigest(MatMul(a, b)));
  PrintDigest("matmul_ta", "value", BitDigest(MatMulTransA(at, b)));
  PrintDigest("matmul_tb", "value", BitDigest(MatMulTransB(a, bt)));
  PrintDigest("softmax", "value", BitDigest(SoftmaxRows(a)));
  PrintDigest("add", "value", BitDigest(Add(a, Scale(a, 0.5f))));

  SbmConfig config;
  config.num_nodes = 2048;
  config.num_classes = 8;
  config.feature_dim = 64;
  config.avg_degree = 16.0;
  Rng grng(7);
  Graph g = GenerateSbmGraph(config, grng);
  const CsrMatrix& norm = g.normalized_adjacency();
  PrintDigest("sym_normalize", "value", BitDigest(norm.values()));
  PrintDigest("row_normalize", "value",
              BitDigest(g.row_normalized_adjacency().values()));
  PrintDigest("spmm", "value", BitDigest(norm.SpMM(g.features())));
  const Tensor y = rng.NormalTensor(config.num_nodes, 32);
  PrintDigest("spmm_t", "value", BitDigest(norm.SpMMTransposed(y)));

  // The generator's factored first layer: forward value, dU and dV under a
  // random upstream gradient, in one digest.
  Rng prng(101);
  Variable pu = MakeVariable(prng.NormalTensor(97, 61), /*requires_grad=*/true);
  Variable pv = MakeVariable(prng.NormalTensor(83, 61), /*requires_grad=*/true);
  Variable pair = ops::PairSum(pu, pv);
  Backward(ops::SumAll(
      ops::Mul(pair, MakeConstant(prng.NormalTensor(97 * 83, 61)))));
  PrintDigest("pair_sum", "value",
              BitDigest(ConcatRows(ConcatRows(pair->value(), pu->grad()),
                                   pv->grad())));
  return 0;
}

}  // namespace
}  // namespace mcond

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return mcond::RunSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Startup-resolved tier (MCOND_SIMD against the CPU probe) in the JSON
  // context, next to num_cpus — BENCH_kernels.json rows depend on both.
  ::benchmark::AddCustomContext(
      "mcond_simd_tier",
      mcond::simd::TierName(mcond::simd::ActiveTier()));
  ::benchmark::AddCustomContext(
      "mcond_simd_avx2_supported",
      (mcond::simd::Avx2Compiled() && mcond::simd::CpuSupportsAvx2Fma())
          ? "yes"
          : "no");
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
