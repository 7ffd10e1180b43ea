// condense and condense-ooc: repeated condense calls, each followed by SGC
// training on the artifact and a solo serving probe that yields test_acc
// and the serving metrics of the artifact just produced.
//
// condense      full MCond (S-step + M-step + mapping) of the resident
//               reddit-sim training graph through RunMCondOnSource; the probe
//               serves node batches of test nodes through ServingSession
//               (Eq. 11).
// condense-ooc  GCond mode (no mapping) through RunMCondOnSource over a
//               ShardedCondenseSource: the graph is generated straight into a
//               segment store larger than the memory budget, and its page
//               cache is dropped before every condense. The artifact has no
//               mapping, so the probe serves held-out store nodes the GCond
//               way: SGC on their streamed Â²X rows.
//
// Both wrap their source in CountingSource, a forwarding CondenseSource that
// times every call into the graph layer.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "condense/condense_source.h"
#include "condense/mcond.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/serialize.h"
#include "core/sharded_csr.h"
#include "core/tensor_ops.h"
#include "data/datasets.h"
#include "data/synthetic.h"
#include "eval/batching.h"
#include "graph/sharded_ops.h"
#include "net/model_registry.h"
#include "nn/module.h"
#include "obs/trace.h"
#include "serve/serving_session.h"
#include "workloads.h"

namespace mcbench {
namespace {

using mcond::HeldOutBatch;
using mcond::Tensor;

constexpr int kSetupReps = 3;
constexpr int kProbeRequests = 1000;
constexpr int64_t kTrainEpochs = 300;

/// Forwards to another CondenseSource and times each call.
class CountingSource : public mcond::CondenseSource {
 public:
  struct Calls {
    int64_t count = 0;
    double us = 0.0;
  };

  explicit CountingSource(const mcond::CondenseSource& inner)
      : inner_(&inner) {}

  int64_t NumNodes() const override { return inner_->NumNodes(); }
  int64_t FeatureDim() const override { return inner_->FeatureDim(); }
  int64_t num_classes() const override { return inner_->num_classes(); }
  const Tensor& features() const override { return inner_->features(); }
  const std::vector<int64_t>& labels() const override {
    return inner_->labels();
  }
  Tensor PropagateNormalized(const Tensor& x, int64_t depth,
                             const std::vector<int64_t>& keep) const override {
    const uint64_t t0 = NowMicros();
    Tensor out = inner_->PropagateNormalized(x, depth, keep);
    Record(&propagate, t0);
    return out;
  }
  mcond::EdgeBatch SampleEdges(int64_t num_pos, int64_t num_neg,
                               mcond::Rng& rng) const override {
    const uint64_t t0 = NowMicros();
    mcond::EdgeBatch out = inner_->SampleEdges(num_pos, num_neg, rng);
    Record(&sample_edges, t0);
    return out;
  }
  Tensor PropagateComposedSupportTail(const HeldOutBatch& support,
                                      int64_t depth) const override {
    const uint64_t t0 = NowMicros();
    Tensor out = inner_->PropagateComposedSupportTail(support, depth);
    Record(&support_tail, t0);
    return out;
  }

  mutable Calls propagate;
  mutable Calls sample_edges;
  mutable Calls support_tail;

 private:
  static void Record(Calls* c, uint64_t t0) {
    c->count += 1;
    c->us += static_cast<double>(NowMicros() - t0);
  }

  const mcond::CondenseSource* inner_;
};

uint64_t ArtifactDigest(const mcond::MCondResult& r) {
  uint64_t h = kFnvSeed;
  h = FoldDigest(h, BitDigest(r.synthetic_features));
  h = FoldDigest(h, BitDigest(r.dense_adjacency));
  h = FoldDigest(h, BitDigest(r.dense_mapping));
  for (float v : r.s_loss_history) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = FoldDigest(h, bits);
  }
  return h;
}

/// Costs summed over the run's condense calls; reported per call.
struct CondenseLayers {
  QuietSeries condense_s;
  double s_step_ms = 0.0, m_step_ms = 0.0, mapping_update_ms = 0.0,
         round_ms = 0.0, prologue_ms = 0.0;
  double propagate_ms = 0.0, sample_edges_ms = 0.0, support_tail_ms = 0.0;
  double propagate_calls = 0.0, sample_edges_calls = 0.0,
         support_tail_calls = 0.0;
  std::map<std::string, std::pair<double, double>> kernels;  // calls, ms
  double pool_jobs = 0.0, pool_tasks = 0.0;
  double shard_pins = 0.0, shard_mmaps = 0.0, shard_evictions = 0.0,
         shard_io_mb = 0.0, prefetch_hits = 0.0, prefetch_misses = 0.0,
         prefetch_stall_ms = 0.0;
  ProcUsage usage;
  std::vector<double> train_s;
};

const char* const kKernels[] = {"matmul", "matmul_ta", "matmul_tb", "spmm",
                                "spmm_t"};

/// Runs one condense call through `counting`, accumulating its layer costs.
mcond::MCondResult TimedCondense(const CountingSource& counting,
                                 const HeldOutBatch& support, int64_t n_syn,
                                 const mcond::MCondConfig& config,
                                 uint64_t seed, bool trace,
                                 CondenseLayers* layers) {
  if (trace) mcond::obs::ClearTrace();
  const CountingSource::Calls prop0 = counting.propagate;
  const CountingSource::Calls edges0 = counting.sample_edges;
  const CountingSource::Calls tail0 = counting.support_tail;
  const MetricsDelta delta;
  const ProcUsage u0 = ProcUsage::Now();
  const uint64_t start_us = NowMicros();
  mcond::MCondResult result;
  {
    mcond::obs::TraceSpan span("bench.condense");
    result = mcond::RunMCondOnSource(counting, support, n_syn, config, seed);
  }
  const ProcUsage used = ProcUsage::Now() - u0;
  layers->condense_s.Add(used.wall_s, start_us, NowMicros());
  layers->usage += used;
  layers->propagate_ms += (counting.propagate.us - prop0.us) * 1e-3;
  layers->propagate_calls += counting.propagate.count - prop0.count;
  layers->sample_edges_ms += (counting.sample_edges.us - edges0.us) * 1e-3;
  layers->sample_edges_calls +=
      counting.sample_edges.count - edges0.count;
  layers->support_tail_ms += (counting.support_tail.us - tail0.us) * 1e-3;
  layers->support_tail_calls +=
      counting.support_tail.count - tail0.count;
  for (const char* k : kKernels) {
    const std::string hist = std::string("mcond.kernel.") + k + "_us";
    auto& [calls, ms] = layers->kernels[k];
    calls += static_cast<double>(delta.HistCount(hist));
    ms += static_cast<double>(delta.HistSum(hist)) * 1e-3;
  }
  layers->pool_jobs += delta.Counter("mcond.pool.jobs");
  layers->pool_tasks += delta.Counter("mcond.pool.tasks");
  layers->shard_pins += delta.Counter("mcond.shard.pins");
  layers->shard_mmaps += delta.Counter("mcond.shard.mmaps");
  layers->shard_evictions += delta.Counter("mcond.shard.evictions");
  layers->shard_io_mb +=
      delta.Counter("mcond.shard.io_bytes") / (1024.0 * 1024.0);
  layers->prefetch_hits += delta.Counter("mcond.shard.prefetch.hits");
  layers->prefetch_misses += delta.Counter("mcond.shard.prefetch.misses");
  layers->prefetch_stall_ms +=
      delta.HistSum("mcond.shard.prefetch.stall_us") * 1e-3;
  if (trace) {
    const auto spans = PhaseSpanTotals(
        {"condense.round", "condense.s_step", "condense.mapping_update",
         "condense.m_step"});
    layers->s_step_ms += spans.at("condense.s_step").self_us * 1e-3;
    layers->m_step_ms += spans.at("condense.m_step").self_us * 1e-3;
    layers->mapping_update_ms +=
        spans.at("condense.mapping_update").self_us * 1e-3;
    layers->round_ms += spans.at("condense.round").self_us * 1e-3;
    layers->prologue_ms +=
        used.wall_s * 1e3 - spans.at("condense.round").total_us * 1e-3;
    mcond::obs::ClearTrace();
  }
  return result;
}

std::unique_ptr<mcond::GnnModel> Train(const mcond::CondensedGraph& artifact,
                                       uint64_t seed, CondenseLayers* layers) {
  const double t0 = NowSeconds();
  mcond::obs::TraceSpan span("bench.train");
  auto trained =
      mcond::net::ModelRegistry::DefaultSgcFactory(kTrainEpochs, seed)(
          artifact);
  MCOND_CHECK(trained.ok()) << trained.status().ToString();
  layers->train_s.push_back(NowSeconds() - t0);
  return std::move(trained).value();
}

/// Solo serving probe: per-request latency samples and requests/s of every
/// rep, and the accuracy of the first rep's artifact on a fixed evaluation
/// set (every run condenses the same first artifact, so test_acc repeats).
struct Probe {
  std::vector<double> latency_us;
  std::vector<uint64_t> start_us;  // when each latency sample began
  QuietSeries rps;
  int64_t requests = 0;
  int64_t nodes = 0;
  int64_t correct = 0;

  void Score(const Tensor& logits, const std::vector<int64_t>& labels) {
    for (int64_t row = 0; row < logits.rows(); ++row) {
      const float* p = logits.data() + row * logits.cols();
      const int64_t pred = std::max_element(p, p + logits.cols()) - p;
      correct += pred == labels[static_cast<size_t>(row)] ? 1 : 0;
      ++nodes;
    }
  }
};

/// Distinct random indices in [0, pool) for probe request `key`.
std::vector<int64_t> ProbeIndices(uint64_t seed, uint64_t key, int64_t pool,
                                  int64_t lo, int64_t hi) {
  mcond::Rng rng(Mix(seed ^ Mix(key)));
  const int64_t n = rng.RandInt(std::min(lo, pool), std::min(hi, pool));
  std::vector<int64_t> ids(static_cast<size_t>(pool));
  std::iota(ids.begin(), ids.end(), int64_t{0});
  for (int64_t i = 0; i < n; ++i) {
    std::swap(ids[static_cast<size_t>(i)],
              ids[static_cast<size_t>(rng.RandInt(i, pool - 1))]);
  }
  ids.resize(static_cast<size_t>(n));
  return ids;
}

void AddCommonMetrics(const RunArgs& args, const QuietSeries& setup_s,
                      const CondenseLayers& layers, const Probe& probe,
                      int reps, Result& result) {
  int quiet_setups = 0, quiet_reps = 0;
  result.Add("setup_s", setup_s.Value(&quiet_setups), "s");
  result.Add("condense_s", layers.condense_s.Value(&quiet_reps), "s");
  const WindowedResult windowed =
      WindowedQuantiles(probe.latency_us, probe.start_us);
  const Quantiles& lat = windowed.q;
  result.Add("rps_max", probe.rps.Value(), "req/s");
  result.Add("lat_p50_us", lat.p50, "us");
  result.Add("lat_p99_us", lat.p99, "us");
  result.attempted = reps + probe.requests;
  result.failed = 0;
  result.Add("ok_ratio", 1.0, "ratio");
  result.Add("test_acc",
             probe.nodes > 0 ? static_cast<double>(probe.correct) / probe.nodes
                             : 0.0,
             "ratio");
  std::string times;
  for (double s : layers.condense_s.values()) times += " " + std::to_string(s);
  Result::Note("setup reps=%zu (%d quiet); condense reps=%d (%d quiet) "
               "times_s:%s median %.3f",
               setup_s.values().size(), quiet_setups, reps, quiet_reps,
               times.c_str(), result.Get("condense_s"));
  Result::Note("probe: %lld solo requests, latency p50 %.1f us p99 %.1f us "
               "over %lld samples (%lld beyond p99), test_acc %.4f over %lld "
               "nodes",
               static_cast<long long>(probe.requests), lat.p50, lat.p99,
               static_cast<long long>(lat.samples),
               static_cast<long long>(lat.beyond_p99), result.Get("test_acc"),
               static_cast<long long>(probe.nodes));
  const double threads = mcond::ThreadPool::Global().NumThreads();
  Result::Note("condense cpu: user %.2f s sys %.2f s wall %.2f s over %d "
               "calls, util %.3f of %g threads, %lld minor faults",
               layers.usage.user_s, layers.usage.sys_s, layers.usage.wall_s,
               reps,
               (layers.usage.user_s + layers.usage.sys_s) /
                   (layers.usage.wall_s * threads),
               threads, static_cast<long long>(layers.usage.minor_faults));
  if (!args.trace) return;

  const double n = static_cast<double>(reps);
  result.Add("condense.s_step_ms", layers.s_step_ms / n, "ms");
  result.Add("condense.m_step_ms", layers.m_step_ms / n, "ms");
  result.Add("condense.mapping_update_ms", layers.mapping_update_ms / n, "ms");
  result.Add("condense.round_ms", layers.round_ms / n, "ms");
  result.Add("condense.prologue_ms", layers.prologue_ms / n, "ms");
  for (const auto& [name, v] : layers.kernels) {
    result.Add("kernel." + name + ".calls", v.first / n, "count");
    result.Add("kernel." + name + ".ms", v.second / n, "ms");
  }
  result.Add("pool.jobs", layers.pool_jobs / n, "count");
  result.Add("pool.tasks", layers.pool_tasks / n, "count");
  result.Add("proc.cpu_util",
             (layers.usage.user_s + layers.usage.sys_s) /
                 (layers.usage.wall_s * threads),
             "ratio");
  result.Add("proc.sys_s", layers.usage.sys_s / n, "s");
  result.Add("proc.minor_faults", layers.usage.minor_faults / n, "count");
  result.Add("source.propagate_ms", layers.propagate_ms / n, "ms");
  result.Add("source.propagate_calls", layers.propagate_calls / n, "count");
  result.Add("source.sample_edges_ms", layers.sample_edges_ms / n, "ms");
  result.Add("source.sample_edges_calls", layers.sample_edges_calls / n,
             "count");
  result.Add("source.support_tail_ms", layers.support_tail_ms / n, "ms");
  result.Add("source.support_tail_calls", layers.support_tail_calls / n,
             "count");
  result.Add("shard.pins", layers.shard_pins / n, "count");
  result.Add("shard.mmaps", layers.shard_mmaps / n, "count");
  result.Add("shard.evictions", layers.shard_evictions / n, "count");
  result.Add("shard.io_mb", layers.shard_io_mb / n, "MB");
  const double lookups = layers.prefetch_hits + layers.prefetch_misses;
  result.Add("shard.prefetch.hit_ratio",
             lookups > 0 ? layers.prefetch_hits / lookups : 0.0, "ratio");
  result.Add("shard.prefetch.stall_ms", layers.prefetch_stall_ms / n, "ms");
  result.Add("setup.generate_s", setup_s.Value(), "s");
  result.Add("setup.train_s", Median(layers.train_s), "s");
  result.Add("session.serve_us_p50", lat.p50, "us");
}

// ---------------------------------------------------------------------------
// condense
// ---------------------------------------------------------------------------

constexpr const char* kCondenseDataset = "reddit-sim";
constexpr double kCondenseRatio = 0.02;
constexpr int64_t kCondenseRounds = 4;  // mcond_cli --epochs 60

}  // namespace

void RunCondense(const RunArgs& args, Result& result) {
  if (args.trace) mcond::obs::EnableTracing(true);
  const mcond::DatasetSpec spec =
      mcond::FindDatasetSpec(kCondenseDataset).value();
  QuietSeries setup_s;
  mcond::InductiveDataset data;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    data = mcond::InductiveDataset{};
    const uint64_t start_us = NowMicros();
    mcond::obs::TraceSpan span("bench.setup.generate");
    data = mcond::MakeDataset(spec, kFixtureSeed);
    setup_s.Add((NowMicros() - start_us) * 1e-6, start_us, NowMicros());
  }
  if (args.trace) mcond::obs::ClearTrace();

  const int64_t n_syn =
      mcond::SyntheticNodeCount(data.train_graph, kCondenseRatio);
  mcond::MCondConfig config;
  config.outer_rounds = kCondenseRounds;
  const mcond::ResidentCondenseSource resident(data.train_graph);
  const CountingSource counting(resident);

  CondenseLayers layers;
  Probe probe;
  const double deadline = NowSeconds() + args.seconds;
  int reps = 0;
  do {
    const uint64_t condense_seed = kFixtureSeed + reps;
    const uint64_t probe_seed = Mix(args.seed) ^ Mix(reps);
    const mcond::MCondResult condensed = TimedCondense(
        counting, data.val, n_syn, config, condense_seed, args.trace, &layers);
    const uint64_t digest = ArtifactDigest(condensed);
    Result::Note("condense rep %d artifact digest %016llx (mapping nnz %lld)",
                 reps, static_cast<unsigned long long>(digest),
                 static_cast<long long>(condensed.condensed.mapping.Nnz()));
    if (!CheckOrRecordDigest(args, reps, digest)) {
      result.Fail("condense rep " + std::to_string(reps) +
                  " digest differs from an earlier run of these sources");
    }

    std::unique_ptr<mcond::GnnModel> model =
        Train(condensed.condensed, kFixtureSeed, &layers);
    mcond::ServingSession session(condensed.condensed, *model);
    mcond::Rng rng(7);
    if (reps == 0) {
      // test_acc: the whole test split in node batches of 32, the same
      // batches in every run.
      for (const HeldOutBatch& batch : mcond::SplitIntoBatches(data.test, 32)) {
        probe.Score(session.Serve(batch, /*graph_batch=*/false, rng),
                    batch.labels);
      }
    }
    // Served the way a ConcurrentServer replica serves: kernels inline on
    // this thread, no pool hand-offs.
    const mcond::ScopedInlineParallelRegion inline_region;
    const uint64_t p0 = NowMicros();
    for (int i = 0; i < kProbeRequests; ++i) {
      const HeldOutBatch batch = mcond::SubsetBatch(
          data.test, ProbeIndices(probe_seed, static_cast<uint64_t>(i),
                                  data.test.size(), 8, 32));
      probe.start_us.push_back(NowMicros());
      const double t0 = PreciseMicros();
      session.Serve(batch, /*graph_batch=*/false, rng);
      probe.latency_us.push_back(PreciseMicros() - t0);
      ++probe.requests;
    }
    probe.rps.Add(kProbeRequests / ((NowMicros() - p0) * 1e-6), p0,
                  NowMicros());
    ++reps;
  } while (NowSeconds() < deadline);
  AddCommonMetrics(args, setup_s, layers, probe, reps, result);
}

// ---------------------------------------------------------------------------
// condense-ooc
// ---------------------------------------------------------------------------

namespace {

/// ~10^5 nodes at Reddit-like density: the two segment stores are several
/// times the memory budget, and the dense work (128 synthetic nodes,
/// 16 features) is small.
mcond::SbmConfig OocGraphConfig() {
  mcond::SbmConfig config;
  config.num_nodes = 100000;
  config.num_classes = 8;
  config.feature_dim = 16;
  config.avg_degree = 64.0;
  config.homophily = 0.8;
  config.feature_noise = 1.5;
  config.label_rate = 1.0;
  return config;
}
constexpr int64_t kOocBudgetBytes = int64_t{24} << 20;
constexpr int64_t kOocSynthetic = 32;
constexpr int64_t kOocEvalNodes = 4000;
constexpr double kOocLabelRate = 0.1;

/// Drops a store file from the page cache (dirty pages are synced first).
/// Pages a store still has mapped stay resident.
void DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// Support batch RunMCondOnSource requires; GCond mode never composes it.
HeldOutBatch SupportBatch(int64_t n_orig, int64_t dim, uint64_t seed) {
  mcond::Rng rng(seed);
  constexpr int64_t kSupport = 64;
  HeldOutBatch batch;
  batch.features = rng.NormalTensor(kSupport, dim);
  std::vector<mcond::Triplet> links;
  for (int64_t i = 0; i < kSupport; ++i) {
    batch.labels.push_back(-1);
    for (int k = 0; k < 4; ++k) {
      links.push_back({i, rng.RandInt(0, n_orig - 1), 1.0f});
    }
  }
  batch.links = mcond::CsrMatrix::FromTriplets(kSupport, n_orig, links);
  batch.inter = mcond::CsrMatrix::FromTriplets(kSupport, kSupport, {});
  return batch;
}

/// Runs GenerateOocStore in a child process: the generator's per-bucket
/// edge sort would otherwise set this process's peak RSS, which the
/// out-of-core gate compares with the resident footprint.
bool SpawnGenerator(const RunArgs& args, const std::string& dir,
                    std::string* error) {
  const std::string seed = std::to_string(kFixtureSeed);
  std::vector<std::string> argv_s = {
      args.self_path, "--workload", "condense-ooc-generate", "--seed", seed,
      "--seconds",    "1",          "--trace",               "0",
      "--state",      args.state_dir, "--scratch",           dir};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, args.self_path.c_str(), nullptr,
                               nullptr, argv.data(), environ);
  if (rc != 0) {
    *error = std::string("posix_spawn: ") + std::strerror(rc);
    return false;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      *error = std::string("waitpid: ") + std::strerror(errno);
      return false;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "generator child failed";
    return false;
  }
  return true;
}

mcond::StatusOr<mcond::ShardedGraph> OpenOocStore(
    const std::string& dir, const mcond::SbmConfig& config) {
  auto adjacency =
      mcond::ShardedCsr::Open(dir + "/adjacency.mcss", kOocBudgetBytes);
  if (!adjacency.ok()) return adjacency.status();
  auto normalized =
      mcond::ShardedCsr::Open(dir + "/normalized.mcss", kOocBudgetBytes);
  if (!normalized.ok()) return normalized.status();
  auto features = mcond::LoadTensor(dir + "/features.bin");
  if (!features.ok()) return features.status();
  auto labels = mcond::LoadTensor(dir + "/labels.bin");
  if (!labels.ok()) return labels.status();
  mcond::ShardedGraph graph;
  graph.adjacency =
      std::make_shared<mcond::ShardedCsr>(std::move(adjacency).value());
  graph.normalized =
      std::make_shared<mcond::ShardedCsr>(std::move(normalized).value());
  graph.features = std::move(features).value();
  for (int64_t i = 0; i < labels.value().rows(); ++i) {
    graph.labels.push_back(static_cast<int64_t>(labels.value().At(i, 0)));
  }
  graph.num_classes = config.num_classes;
  return graph;
}

}  // namespace

int GenerateOocStore(const RunArgs& args) {
  mcond::Rng rng(kFixtureSeed);
  auto generated = mcond::GenerateSbmGraphSharded(
      OocGraphConfig(), rng, args.scratch_dir, mcond::ShardOptions(),
      kOocBudgetBytes);
  if (!generated.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const mcond::ShardedGraph& g = generated.value();
  Tensor labels(static_cast<int64_t>(g.labels.size()), 1);
  for (size_t i = 0; i < g.labels.size(); ++i) {
    labels.At(static_cast<int64_t>(i), 0) = static_cast<float>(g.labels[i]);
  }
  mcond::Status st =
      mcond::SaveTensor(args.scratch_dir + "/features.bin", g.features);
  if (st.ok()) st = mcond::SaveTensor(args.scratch_dir + "/labels.bin", labels);
  if (!st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

void RunCondenseOoc(const RunArgs& args, Result& result) {
  if (args.trace) mcond::obs::EnableTracing(true);
  const mcond::SbmConfig config = OocGraphConfig();
  std::error_code ec;
  QuietSeries setup_s;
  mcond::ShardedGraph graph;
  std::string dir;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graph = mcond::ShardedGraph{};
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    dir = args.scratch_dir + "/ooc-" + std::to_string(::getpid()) + "-" +
          std::to_string(rep);
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    const uint64_t start_us = NowMicros();
    {
      mcond::obs::TraceSpan span("bench.setup.generate");
      std::string error;
      if (!SpawnGenerator(args, dir, &error)) {
        result.Fail("generate: " + error);
        return;
      }
      auto opened = OpenOocStore(dir, config);
      if (!opened.ok()) {
        result.Fail("open: " + opened.status().ToString());
        return;
      }
      graph = std::move(opened).value();
      DropPageCache(graph.adjacency->path());
      DropPageCache(graph.normalized->path());
    }
    setup_s.Add((NowMicros() - start_us) * 1e-6, start_us, NowMicros());
  }
  if (args.trace) mcond::obs::ClearTrace();

  // Held-out evaluation nodes keep their true label only here; the
  // condense sees them unlabeled, along with all but kOocLabelRate of the
  // remaining nodes.
  const int64_t n = graph.NumNodes();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), int64_t{0});
  mcond::Rng split_rng(Mix(kFixtureSeed ^ 0x00cull));
  split_rng.Shuffle(order);
  std::vector<int64_t> eval_nodes(order.begin(),
                                  order.begin() + kOocEvalNodes);
  std::sort(eval_nodes.begin(), eval_nodes.end());
  std::vector<int64_t> eval_labels;
  for (int64_t v : eval_nodes) {
    eval_labels.push_back(graph.labels[static_cast<size_t>(v)]);
  }
  const int64_t keep_labeled = static_cast<int64_t>(kOocLabelRate * n);
  for (int64_t i = kOocEvalNodes + keep_labeled; i < n; ++i) {
    graph.labels[static_cast<size_t>(order[static_cast<size_t>(i)])] = -1;
  }
  for (int64_t v : eval_nodes) graph.labels[static_cast<size_t>(v)] = -1;

  const HeldOutBatch support =
      SupportBatch(n, config.feature_dim, Mix(kFixtureSeed ^ 0x5u));
  mcond::MCondConfig mc;
  mc.learn_mapping = false;  // GCond mode: no N x N' state out of core.
  mc.outer_rounds = 1;
  mc.s_steps_per_round = 6;

  const std::string scratch = dir + "/condense-scratch";
  const mcond::ShardedCondenseSource sharded(graph, scratch);
  const CountingSource counting(sharded);

  CondenseLayers layers;
  Probe probe;
  const double deadline = NowSeconds() + args.seconds;
  int reps = 0;
  do {
    DropPageCache(graph.adjacency->path());
    DropPageCache(graph.normalized->path());
    const uint64_t condense_seed = kFixtureSeed + reps;
    const uint64_t probe_seed = Mix(args.seed) ^ Mix(reps);
    const mcond::MCondResult condensed =
        TimedCondense(counting, support, kOocSynthetic, mc, condense_seed,
                      args.trace, &layers);
    const uint64_t digest = ArtifactDigest(condensed);
    Result::Note("condense rep %d artifact digest %016llx", reps,
                 static_cast<unsigned long long>(digest));
    if (!CheckOrRecordDigest(args, reps, digest)) {
      result.Fail("condense rep " + std::to_string(reps) +
                  " digest differs from an earlier run of these sources");
    }

    // GCond deployment for nodes of the original graph: SGC trained on the
    // synthetic graph, applied to the nodes' Â²X rows (streamed). An
    // edgeless operator is the identity, so Predict applies only the
    // model's weights.
    std::unique_ptr<mcond::GnnModel> model =
        Train(condensed.condensed, kFixtureSeed, &layers);
    mcond::Rng rng(7);
    const auto predict = [&](const std::vector<int64_t>& nodes) {
      const int64_t b = static_cast<int64_t>(nodes.size());
      return model->Predict(
          mcond::GraphOperators::FromAdjacency(
              mcond::CsrMatrix::FromTriplets(b, b, {})),
          sharded.PropagateNormalized(graph.features, 2, nodes), rng);
    };
    if (reps == 0) {
      // test_acc: every held-out node, the same in every run.
      probe.Score(predict(eval_nodes), eval_labels);
    }
    // One request per rep: half of the held-out nodes, drawn by --seed,
    // each pass streaming the store.
    std::vector<int64_t> nodes;
    for (int64_t k : ProbeIndices(probe_seed, 0, kOocEvalNodes,
                                  kOocEvalNodes / 2, kOocEvalNodes / 2)) {
      nodes.push_back(eval_nodes[static_cast<size_t>(k)]);
    }
    std::sort(nodes.begin(), nodes.end());
    const uint64_t p0 = NowMicros();
    probe.start_us.push_back(p0);
    predict(nodes);
    const uint64_t p1 = NowMicros();
    probe.latency_us.push_back(static_cast<double>(p1 - p0));
    probe.rps.Add(1e6 / static_cast<double>(p1 - p0), p0, p1);
    ++probe.requests;
    ++reps;
  } while (NowSeconds() < deadline);

  // The out-of-core gate: peak RSS stays below what the resident CSR path
  // would hold (adjacency + normalized CSRs, features, labels).
  const int64_t nnz = graph.adjacency->Nnz();
  const double resident_mb =
      static_cast<double>(2 * ((n + 1) * 8 + nnz * (4 + 4)) +
                          n * config.feature_dim * 4 + n * 8) /
      (1024.0 * 1024.0);
  const double store_mb = static_cast<double>(graph.adjacency->StorageBytes() +
                                              graph.normalized->StorageBytes()) /
                          (1024.0 * 1024.0);
  Result::Note("ooc store %.1f MB (nnz %lld) under a %.0f MB budget; "
               "resident footprint %.1f MB, peak RSS %.1f MB",
               store_mb, static_cast<long long>(nnz),
               kOocBudgetBytes / (1024.0 * 1024.0), resident_mb, PeakRssMb());
  if (PeakRssMb() >= resident_mb) {
    result.Fail("peak RSS is not below the resident footprint");
  }
  AddCommonMetrics(args, setup_s, layers, probe, reps, result);

  graph = mcond::ShardedGraph{};  // close the stores before removing them
  std::filesystem::remove_all(dir, ec);
}

}  // namespace mcbench
