// Out-of-core condensation at scale: generates a multi-million-node DC-SBM
// graph (reddit-xl-sim) straight into the sharded segment store and runs a
// GCond-mode condense round under an explicit memory budget, reporting
// nodes/sec and the kernel-maintained peak RSS against the footprint the
// resident-CSR path would have needed (docs/performance.md, "Out-of-core
// condensation").
//
// Modes:
//   bench_condense_scale --smoke
//       Prints a `digest <op> resident|streamed <hex>` pair for every
//       streamed operation (sym-normalize, SpMM, row sums, propagate,
//       compose, edge sampling) plus one full condense round on a small
//       graph forced into >= 4 segments. tools/check_determinism.sh
//       requires each streamed digest to equal its resident oracle, and
//       every line identical across thread widths and prefetch depths.
//   bench_condense_scale --one <nodes> <budget_mb> [prefetch]
//       Runs one generate+condense at the given budget in THIS process and
//       prints a single machine-readable ROW line. Peak RSS (VmHWM) is
//       monotone per process, so --json runs each budget in a child. The
//       optional prefetch arg pins the segment-prefetch depth (default:
//       ambient MCOND_PREFETCH_SEGMENTS); store files are fadvise-dropped
//       from the page cache between generation and condense so the condense
//       phase does cold reads — the workload prefetch exists for.
//   bench_condense_scale --json [nodes]
//       Spawns --one for budgets {unbounded, 512, 128}, the budgeted rows
//       both with prefetch off and on, and emits the BENCH_condense.json
//       document on stdout.
#include <fcntl.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "condense/mcond.h"
#include "core/bit_digest.h"
#include "core/parallel.h"
#include "core/segment_prefetcher.h"
#include "core/simd.h"
#include "core/tensor_ops.h"
#include "data/synthetic.h"
#include "graph/compose.h"
#include "graph/inductive.h"
#include "graph/sampling.h"
#include "graph/sharded_ops.h"
#include "obs/resource.h"

namespace mcond {
namespace {

// Structure and values of a CSR matrix, fed one row-range view at a time
// (the whole matrix, or each segment of a store in order): row_ptr once,
// then the column and value streams hashed separately so the digest does
// not depend on the split.
struct CsrDigest {
  uint64_t cols = kBitDigestSeed;
  uint64_t vals = kBitDigestSeed;
  uint64_t rows;

  explicit CsrDigest(const std::vector<int64_t>& row_ptr)
      : rows(FoldBytes(kBitDigestSeed, row_ptr.data(),
                       row_ptr.size() * sizeof(int64_t))) {}
  void Add(const CsrView& v) {
    cols = FoldBytes(cols, v.col_idx + v.row_ptr[0],
                     static_cast<size_t>(v.nnz) * sizeof(int32_t));
    vals = FoldBits(vals, v.values + v.row_ptr[0], v.nnz);
  }
  uint64_t Value() const {
    const uint64_t h = FoldBytes(rows, &cols, sizeof(cols));
    return FoldBytes(h, &vals, sizeof(vals));
  }
};

uint64_t StoreDigest(const ShardedCsr& store) {
  CsrDigest digest(store.row_ptr());
  SequentialCursor cursor(store);
  for (int64_t s = 0; s < store.NumSegments(); ++s) {
    StatusOr<PinnedSegment> pin = cursor.Next();
    MCOND_CHECK(pin.ok());
    digest.Add(pin.value().view());
  }
  return digest.Value();
}

uint64_t EdgeBatchDigest(const EdgeBatch& batch) {
  uint64_t h = FoldBytes(kBitDigestSeed, batch.src.data(),
                         batch.src.size() * sizeof(int64_t));
  h = FoldBytes(h, batch.dst.data(), batch.dst.size() * sizeof(int64_t));
  return FoldBits(h, batch.target.data(), batch.size());
}

uint64_t CondenseDigest(const MCondResult& r) {
  uint64_t h = BitDigest(r.synthetic_features);
  h = FoldBits(h, r.dense_adjacency);
  return FoldBits(h, r.s_loss_history);
}

std::string ScratchDir(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("mcond_condense_scale_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

// ---------------------------------------------------------------------------
// --smoke: streamed-vs-resident digest pairs for check_determinism.sh.
// ---------------------------------------------------------------------------

int RunSmoke() {
  std::printf("threads %d\n", ThreadPool::Global().NumThreads());
  std::printf("simd %s\n", simd::TierName(simd::ActiveTier()));
  std::printf("prefetch %" PRId64 "\n", PrefetchSegments());

  SbmConfig config;
  config.num_nodes = 140;
  config.num_classes = 3;
  config.feature_dim = 12;
  config.avg_degree = 6.0;
  Rng rng(21);
  const Graph full = GenerateSbmGraph(config, rng);
  InductiveDataset split = MakeInductiveSplit(full, 0.15, 0.15, rng);
  const Graph& train = split.train_graph;

  const std::string dir = ScratchDir("smoke");
  ShardOptions options;
  options.max_rows_per_segment = std::max<int64_t>(1, train.NumNodes() / 4);
  StatusOr<ShardedGraph> sharded =
      ShardGraph(train, dir, options, /*mem_budget_bytes=*/4096);
  if (!sharded.ok()) {
    std::fprintf(stderr, "shard: %s\n", sharded.status().ToString().c_str());
    return 1;
  }

  PrintDigest("sym_normalize", "resident",
              BitDigest(train.normalized_adjacency().values()));
  {
    uint64_t h = kBitDigestSeed;
    const ShardedCsr& norm = *sharded.value().normalized;
    SequentialCursor cursor(norm);
    for (int64_t s = 0; s < norm.NumSegments(); ++s) {
      StatusOr<PinnedSegment> pin = cursor.Next();
      MCOND_CHECK(pin.ok());
      h = FoldBits(h, pin.value().values(), pin.value().view().nnz);
    }
    PrintDigest("sym_normalize", "streamed", h);
  }

  PrintDigest("spmm", "resident",
              BitDigest(train.normalized_adjacency().SpMM(train.features())));
  StatusOr<Tensor> spmm =
      ShardedSpMM(*sharded.value().normalized, train.features());
  MCOND_CHECK(spmm.ok());
  PrintDigest("spmm", "streamed", BitDigest(spmm.value()));

  PrintDigest("rowsums", "resident", BitDigest(train.adjacency().RowSums()));
  StatusOr<std::vector<float>> sums = ShardedRowSums(*sharded.value().adjacency);
  MCOND_CHECK(sums.ok());
  PrintDigest("rowsums", "streamed", BitDigest(sums.value()));

  const std::vector<int64_t> keep = train.LabeledNodes();
  Tensor prop = train.features();
  for (int i = 0; i < 2; ++i) prop = train.normalized_adjacency().SpMM(prop);
  PrintDigest("propagate", "resident", BitDigest(GatherRows(prop, keep)));
  StatusOr<Tensor> sprop =
      ShardedPropagate(*sharded.value().normalized, train.features(), 2, keep);
  MCOND_CHECK(sprop.ok());
  PrintDigest("propagate", "streamed", BitDigest(sprop.value()));

  {
    const CsrMatrix composed = ComposeBlockAdjacency(
        train.adjacency(), split.val.links, split.val.inter);
    CsrDigest digest(composed.row_ptr());
    digest.Add(composed.View());
    PrintDigest("compose", "resident", digest.Value());
    StatusOr<ShardedCsr> scomposed = ShardedComposeBlockAdjacency(
        *sharded.value().adjacency, split.val.links, split.val.inter,
        dir + "/composed.mcss", options, /*mem_budget_bytes=*/4096);
    MCOND_CHECK(scomposed.ok());
    PrintDigest("compose", "streamed", StoreDigest(scomposed.value()));
  }

  Rng resident_rng(123), streamed_rng(123);
  PrintDigest("sample_edges", "resident",
              EdgeBatchDigest(
                  SampleEdgeBatch(train.adjacency(), 32, 32, resident_rng)));
  StatusOr<EdgeBatch> sampled =
      ShardedSampleEdgeBatch(*sharded.value().adjacency, 32, 32, streamed_rng);
  MCOND_CHECK(sampled.ok());
  PrintDigest("sample_edges", "streamed", EdgeBatchDigest(sampled.value()));

  MCondConfig mc;
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 2;
  mc.m_steps_per_round = 2;
  mc.relay_refinement_steps = 2;
  mc.edge_batch = 16;
  PrintDigest("condense", "resident",
              CondenseDigest(RunMCond(train, split.val, 9, mc, 77)));
  PrintDigest("condense", "streamed",
              CondenseDigest(
                  RunMCondSharded(sharded.value(), split.val, 9, mc, 77)));

  sharded = ShardedGraph{};  // Close stores before removing the directory.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}

// ---------------------------------------------------------------------------
// --one: one budgeted generate+condense in this process (clean VmHWM).
// ---------------------------------------------------------------------------

// reddit-xl-sim: million-node scale with Reddit-like density so the segment
// store, not the resident feature matrix, dominates the footprint.
SbmConfig XlConfig(int64_t nodes) {
  SbmConfig config;
  config.num_nodes = nodes;
  config.num_classes = 8;
  config.feature_dim = 16;
  config.avg_degree = 96.0;
  config.label_rate = 0.1;
  return config;
}

// A small synthetic held-out batch: RunMCondSharded requires one, but the
// GCond-mode (learn_mapping=false) XL run never composes it.
HeldOutBatch MakeSupportBatch(int64_t n_orig, int64_t num_classes,
                              int64_t dim, Rng& rng) {
  HeldOutBatch batch;
  const int64_t n_sup = 64;
  batch.features = rng.NormalTensor(n_sup, dim);
  std::vector<Triplet> links, inter;
  for (int64_t i = 0; i < n_sup; ++i) {
    batch.labels.push_back(
        static_cast<int64_t>(rng.Uniform(0.0f, 1.0f) * num_classes) %
        num_classes);
    for (int k = 0; k < 4; ++k) {
      links.push_back(
          {i, static_cast<int64_t>(rng.Uniform(0.0f, 1.0f) * n_orig) % n_orig,
           1.0f});
    }
    if (i + 1 < n_sup) {
      inter.push_back({i, i + 1, 1.0f});
      inter.push_back({i + 1, i, 1.0f});
    }
  }
  batch.links = CsrMatrix::FromTriplets(n_sup, n_orig, links);
  batch.inter = CsrMatrix::FromTriplets(n_sup, n_sup, inter);
  return batch;
}

// Best-effort drop of `path` from the page cache (dirty pages are synced
// first — DONTNEED skips them otherwise). Pages a store still has mapped
// stay resident; freshly written, unmapped store files go cold, which is
// the state a real multi-pass condense starts each pass from.
void DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

int RunOne(int64_t nodes, int64_t budget_mb, int64_t prefetch) {
  if (prefetch >= 0) SetPrefetchSegments(prefetch);
  const SbmConfig config = XlConfig(nodes);
  const std::string dir = ScratchDir("b" + std::to_string(budget_mb) + "_p" +
                                     std::to_string(PrefetchSegments()));
  const int64_t budget_bytes = budget_mb << 20;

  Rng rng(17);
  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<ShardedGraph> graph =
      GenerateSbmGraphSharded(config, rng, dir, ShardOptions(), budget_bytes);
  if (!graph.ok()) {
    std::fprintf(stderr, "generate: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  DropPageCache(graph.value().adjacency->path());
  DropPageCache(graph.value().normalized->path());
  const auto t1 = std::chrono::steady_clock::now();

  Rng sup_rng(5);
  const HeldOutBatch support =
      MakeSupportBatch(nodes, config.num_classes, config.feature_dim, sup_rng);

  MCondConfig mc;
  mc.learn_mapping = false;  // GCond mode: no N x N' mapping state at XL.
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 3;
  mc.relay_refinement_steps = 5;
  mc.edge_batch = 256;
  const MCondResult result =
      RunMCondSharded(graph.value(), support, 128, mc, 7);
  const auto t2 = std::chrono::steady_clock::now();
  MCOND_CHECK_EQ(result.synthetic_features.rows(), 128);

  const ShardedGraph& g = graph.value();
  const int64_t nnz = g.adjacency->Nnz();
  // What the resident path would have held: adjacency + normalized CSRs
  // (row_ptr i64 + col i32 + val f32 each) plus features and labels.
  const int64_t resident_footprint =
      2 * ((nodes + 1) * 8 + nnz * (4 + 4)) +
      g.features.rows() * g.features.cols() * 4 + nodes * 8;
  const int64_t store_bytes =
      g.adjacency->StorageBytes() + g.normalized->StorageBytes();
  const double gen_sec = std::chrono::duration<double>(t1 - t0).count();
  const double condense_sec = std::chrono::duration<double>(t2 - t1).count();

  std::printf("ROW nodes=%" PRId64 " budget_mb=%" PRId64 " prefetch=%" PRId64
              " nnz=%" PRId64
              " segments=%" PRId64 " gen_sec=%.2f condense_sec=%.2f"
              " nodes_per_sec=%.1f peak_rss_bytes=%" PRId64
              " resident_footprint_bytes=%" PRId64 " store_bytes=%" PRId64
              "\n",
              nodes, budget_mb, PrefetchSegments(), nnz,
              g.adjacency->NumSegments() + g.normalized->NumSegments(),
              gen_sec, condense_sec, nodes / condense_sec,
              obs::PeakRssBytes(), resident_footprint, store_bytes);

  graph = ShardedGraph{};  // Close stores before removing the directory.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return 0;
}

// ---------------------------------------------------------------------------
// --json: one child per budget so each row gets an uncontaminated VmHWM.
// ---------------------------------------------------------------------------

int RunJson(const char* self, int64_t nodes) {
  // The budgeted rows run with prefetch off and on so the baseline captures
  // the overlap win on the same host; the unbounded row keeps the default
  // depth (prefetch is near-neutral when nothing is ever evicted).
  struct Case {
    int64_t budget_mb;
    int64_t prefetch;
  };
  const Case cases[] = {{0, 2}, {512, 0}, {512, 2}, {128, 0}, {128, 2}};
  std::vector<std::string> rows;
  for (const Case& c : cases) {
    const std::string cmd = std::string(self) + " --one " +
                            std::to_string(nodes) + " " +
                            std::to_string(c.budget_mb) + " " +
                            std::to_string(c.prefetch);
    std::fprintf(stderr, "running: %s\n", cmd.c_str());
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
      std::fprintf(stderr, "popen failed\n");
      return 1;
    }
    char line[1024];
    std::string row;
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "ROW ", 4) == 0) row = line;
      std::fputs(line, stderr);
    }
    if (::pclose(pipe) != 0 || row.empty()) {
      std::fprintf(stderr, "budget %" PRId64 " prefetch %" PRId64
                   " run failed\n", c.budget_mb, c.prefetch);
      return 1;
    }
    rows.push_back(row);
  }

  auto field = [](const std::string& row, const char* key) {
    const std::string needle = std::string(key) + "=";
    const size_t at = row.find(needle);
    MCOND_CHECK(at != std::string::npos) << key;
    const size_t begin = at + needle.size();
    const size_t end = row.find_first_of(" \n", begin);
    return row.substr(begin, end == std::string::npos ? end : end - begin);
  };

  std::printf("{\n");
  std::printf(
      "  \"note\": \"Out-of-core condensation baseline: reddit-xl-sim "
      "(DC-SBM) generated straight into the sharded segment store, then one "
      "GCond-mode condense round (learn_mapping=false) under each mmap "
      "budget. peak_rss_bytes is VmHWM measured in a per-budget child "
      "process; resident_footprint_bytes is what the resident-CSR path "
      "would hold (adjacency + normalized + features + labels). The "
      "acceptance gate is peak_rss_bytes < resident_footprint_bytes on the "
      "budgeted rows. Budgeted rows run with segment prefetch off "
      "(prefetch=0) and on (prefetch=2, double buffering) over fadvise-"
      "cooled store files; prefetch changes wall-clock only — results are "
      "bit-identical at every depth. Streamed kernels are bit-identical to "
      "resident (ctest check_determinism + sharded_condense_test).\",\n");
  std::printf("  \"context\": {\"num_cpus\": %ld, \"threads\": %d},\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
              ThreadPool::Global().NumThreads());
  std::printf("  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::string& r = rows[i];
    const std::string budget = field(r, "budget_mb");
    const std::string prefetch = field(r, "prefetch");
    std::printf(
        "    {\"name\": \"condense_xl/budget_%s_mb/prefetch_%s\", "
        "\"nodes\": %s, \"prefetch\": %s, "
        "\"nnz\": %s, \"gen_sec\": %s, \"condense_sec\": %s, "
        "\"nodes_per_sec\": %s, \"peak_rss_bytes\": %s, "
        "\"resident_footprint_bytes\": %s, \"store_bytes\": %s}%s\n",
        budget == "0" ? "unbounded" : budget.c_str(), prefetch.c_str(),
        field(r, "nodes").c_str(), prefetch.c_str(), field(r, "nnz").c_str(),
        field(r, "gen_sec").c_str(), field(r, "condense_sec").c_str(),
        field(r, "nodes_per_sec").c_str(), field(r, "peak_rss_bytes").c_str(),
        field(r, "resident_footprint_bytes").c_str(),
        field(r, "store_bytes").c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace mcond

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return mcond::RunSmoke();
    if (std::strcmp(argv[i], "--one") == 0 && i + 2 < argc) {
      const int64_t prefetch = (i + 3 < argc) ? std::atoll(argv[i + 3]) : -1;
      return mcond::RunOne(std::atoll(argv[i + 1]), std::atoll(argv[i + 2]),
                           prefetch);
    }
    if (std::strcmp(argv[i], "--json") == 0) {
      const int64_t nodes =
          (i + 1 < argc) ? std::atoll(argv[i + 1]) : (int64_t{1} << 20);
      return mcond::RunJson(argv[0], nodes);
    }
  }
  std::fprintf(stderr,
               "usage: %s --smoke | --one <nodes> <budget_mb> [prefetch] | "
               "--json [nodes]\n",
               argv[0]);
  return 2;
}
