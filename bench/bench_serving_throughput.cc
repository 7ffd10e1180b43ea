// Serving-throughput benchmark for the persistent ServingSession (the
// perf-opt tentpole, docs/performance.md "Serving"): streams the test split
// through both serving paths and reports requests/sec plus latency
// quantiles.
//
//   per_request: every batch recomposes the deployment from scratch
//       (aM conversion, block composition, full renormalization, full
//       feature restack) — the ComposeDeployment oracle, kept as a
//       baseline row only; every serving API runs the session path.
//   session:     one ServingSession built up front; every batch patches
//       only the rows its links change. Logits are bit-identical to
//       per_request by construction.
//
// Quantiles come from the observability histograms: the session path
// records mcond.serve.session_total_us itself; the per-request loop records
// an equivalent bench-local histogram. p50/p99 are bucketed approximations
// (obs::HistogramApproxQuantile), good to a factor of 2 — enough to rank
// the two paths, not to quote absolute tails.
//
// The concurrent mode drives a ConcurrentServer (replica pool + bounded
// queue) with closed-loop clients: each client submits one request, waits
// for its logits, and immediately submits the next, so offered load tracks
// service capacity. Aggregate req/s is total completed requests over wall
// time; p50/p99 come from the server's enqueue-to-reply histogram
// (mcond.server.latency_us). Per-request logits stay bit-identical to a
// solo session, checked here with ORDER-INVARIANT digests: each request's
// FNV-1a digest is folded into a running sum mod 2^64, so any completion
// order yields the same total (XOR would cancel identical repeats).
//
// Modes:
//   (default)  human-readable summary on pubmed-sim, solo paths plus one
//              concurrent configuration (--clients C --server_threads K
//              [--queue N] [--micro_batch B], defaults 8/4/32/4).
//   --json     BENCH_kernels.json-style JSON on stdout (BENCH_serving.json
//              is a committed snapshot of this).
//   --reject   load-shedding: the server rejects on a full queue instead
//              of blocking; clients drop rejects. Rows report the
//              rejected-request count next to req/s.
//   --timeline F [--timeline_interval_ms N]   run a MetricsExporter during
//              the concurrent row: JSONL time series to F plus a printed
//              per-interval req/s + p50/p99 + rejects/s timeline.
//   --smoke    tiny-sim, one pass: `digest <mode> per_request|session`
//              logit digests for both batch modes over the condensed and
//              the original (`orig_<mode>`) graph, plus the order-invariant
//              `digest concurrent_<mode> expected|k1|k8` sums at K=1 and
//              K=8 (micro-batched). tools/check_determinism.sh requires
//              every line to equal its group's first line, and every line
//              identical across thread widths and prefetch depths.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bit_digest.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "core/tensor_ops.h"
#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "eval/inference.h"
#include "nn/sgc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/concurrent_server.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

struct PathStats {
  double requests_per_sec = 0.0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  int64_t requests = 0;
  /// Requests shed by the server's backpressure policy during this run
  /// (delta of mcond.server.rejected). Always 0 for the solo paths and for
  /// blocking concurrent runs; nonzero only with --reject.
  int64_t rejected = 0;
  uint64_t checksum = kBitDigestSeed;
};

/// One streaming pass per `passes` over `batches`, per-request path:
/// the full recompose pipeline every batch.
PathStats RunPerRequest(GnnModel& model, const Graph& base,
                        const CondensedGraph* condensed,
                        const std::vector<HeldOutBatch>& batches,
                        bool graph_batch, int64_t passes, Rng& rng) {
  obs::Histogram& hist = obs::GetHistogram("mcond.serve.bench_per_request_us");
  PathStats stats;
  double total_seconds = 0.0;
  for (int64_t pass = 0; pass < passes; ++pass) {
    for (const HeldOutBatch& batch : batches) {
      obs::TraceSpan span("bench.per_request", /*always_time=*/true);
      Deployment dep = condensed != nullptr
                           ? ComposeDeployment(*condensed, batch, graph_batch)
                           : ComposeDeployment(base, batch, graph_batch);
      const Tensor logits = model.Predict(dep.operators, dep.features, rng);
      const Tensor batch_logits =
          SliceRows(logits, dep.num_base, dep.num_base + dep.batch_size);
      const double seconds = span.ElapsedSeconds();
      hist.Record(span.ElapsedMicros());
      total_seconds += seconds;
      ++stats.requests;
      stats.checksum = FoldBits(stats.checksum, batch_logits);
    }
  }
  stats.requests_per_sec =
      total_seconds > 0.0 ? stats.requests / total_seconds : 0.0;
  stats.p50_us = obs::HistogramApproxQuantile(hist, 0.5);
  stats.p99_us = obs::HistogramApproxQuantile(hist, 0.99);
  return stats;
}

/// Same stream through one persistent session. The session records its own
/// mcond.serve.session_total_us samples; we time the calls for the
/// requests/sec figure so both paths are measured identically.
PathStats RunSession(GnnModel& model, const Graph& base,
                     const CondensedGraph* condensed,
                     const std::vector<HeldOutBatch>& batches,
                     bool graph_batch, int64_t passes, Rng& rng) {
  PathStats stats;
  double total_seconds = 0.0;
  ServingSession session = condensed != nullptr
                               ? ServingSession(*condensed, model)
                               : ServingSession(base, model);
  for (int64_t pass = 0; pass < passes; ++pass) {
    for (const HeldOutBatch& batch : batches) {
      obs::TraceSpan span("bench.session", /*always_time=*/true);
      const Tensor& logits = session.Serve(batch, graph_batch, rng);
      total_seconds += span.ElapsedSeconds();
      ++stats.requests;
      stats.checksum = FoldBits(stats.checksum, logits);
    }
  }
  stats.requests_per_sec =
      total_seconds > 0.0 ? stats.requests / total_seconds : 0.0;
  const obs::Histogram& hist =
      obs::GetHistogram("mcond.serve.session_total_us");
  stats.p50_us = obs::HistogramApproxQuantile(hist, 0.5);
  stats.p99_us = obs::HistogramApproxQuantile(hist, 0.99);
  return stats;
}

struct ConcurrentOptions {
  int clients = 8;
  int server_threads = 4;
  int queue_capacity = 32;
  int micro_batch = 4;
  /// Load-shedding mode: the server rejects on a full queue instead of
  /// blocking the submitter; clients drop rejected requests and move on.
  bool reject = false;
  /// When nonempty, a MetricsExporter runs for the duration of the
  /// concurrent run: one JSONL line per interval plus a printed per-second
  /// req/s + interval p50/p99 timeline.
  std::string timeline_path;
  int timeline_interval_ms = 1000;
};

/// Closed-loop concurrent run: `clients` threads each stream `passes`
/// copies of the batch list through a ConcurrentServer of
/// `server_threads` replicas, reusing one output tensor per client.
/// `checksum` is the order-invariant sum of per-request digests.
PathStats RunConcurrent(GnnModel& model, const Graph& base,
                        const CondensedGraph* condensed,
                        const std::vector<HeldOutBatch>& batches,
                        bool graph_batch, int64_t passes,
                        const ConcurrentOptions& opt) {
  std::shared_ptr<const SessionBase> session_base =
      condensed != nullptr ? SessionBase::Build(*condensed)
                           : SessionBase::Build(base);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = opt.server_threads;
  cfg.queue_capacity = opt.queue_capacity;
  cfg.micro_batch = opt.micro_batch;
  cfg.block_when_full = !opt.reject;
  ConcurrentServer server(std::move(session_base), model, cfg);

  obs::MetricsExporter exporter([&] {
    obs::MetricsExporterOptions options;
    options.jsonl_path = opt.timeline_path;
    options.interval_ms = opt.timeline_interval_ms;
    options.tick_sink = [](const obs::MetricsTick& tick) {
      const obs::HistogramSnapshot* lat =
          tick.HistogramDelta("mcond.server.latency_us");
      std::printf("  t=%7.2fs  %9.2f req/s   interval p50 %6llu us   "
                  "p99 %6llu us   rejected %.0f/s\n",
                  static_cast<double>(tick.ts_us) * 1e-6,
                  tick.CounterRate("mcond.server.requests"),
                  static_cast<unsigned long long>(
                      lat != nullptr
                          ? obs::HistogramApproxQuantile(*lat, 0.5)
                          : 0),
                  static_cast<unsigned long long>(
                      lat != nullptr
                          ? obs::HistogramApproxQuantile(*lat, 0.99)
                          : 0),
                  tick.CounterRate("mcond.server.rejected"));
    };
    return options;
  }());
  if (!opt.timeline_path.empty()) {
    const Status st = exporter.Start();
    MCOND_CHECK(st.ok()) << st.ToString();
  }

  const int64_t rejected_before =
      obs::GetCounter("mcond.server.rejected").Value();
  std::atomic<uint64_t> digest_sum{0};
  std::atomic<int64_t> completed{0};
  obs::TraceSpan wall("bench.concurrent", /*always_time=*/true);
  std::vector<std::thread> client_threads;
  client_threads.reserve(static_cast<size_t>(opt.clients));
  for (int c = 0; c < opt.clients; ++c) {
    client_threads.emplace_back([&] {
      Tensor out;  // reused across the stream: steady-state zero-alloc
      uint64_t local_sum = 0;
      int64_t local_done = 0;
      for (int64_t pass = 0; pass < passes; ++pass) {
        for (const HeldOutBatch& batch : batches) {
          const Status st = server.ServeSync(batch, graph_batch, &out);
          if (!st.ok() && opt.reject) continue;  // load shed, move on
          MCOND_CHECK(st.ok()) << st.ToString();
          local_sum += BitDigest(out);
          ++local_done;
        }
      }
      digest_sum.fetch_add(local_sum, std::memory_order_relaxed);
      completed.fetch_add(local_done, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : client_threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  server.Shutdown();
  exporter.Stop();

  PathStats stats;
  stats.requests = completed.load(std::memory_order_relaxed);
  stats.requests_per_sec = seconds > 0.0 ? stats.requests / seconds : 0.0;
  stats.rejected =
      obs::GetCounter("mcond.server.rejected").Value() - rejected_before;
  const obs::Histogram& hist = obs::GetHistogram("mcond.server.latency_us");
  stats.p50_us = obs::HistogramApproxQuantile(hist, 0.5);
  stats.p99_us = obs::HistogramApproxQuantile(hist, 0.99);
  stats.checksum = digest_sum.load(std::memory_order_relaxed);
  return stats;
}

struct Workload {
  InductiveDataset data;
  CondensedGraph condensed;
  std::unique_ptr<GnnModel> model;
  std::vector<HeldOutBatch> batches;
};

/// Deterministic workload: SBM dataset, a random-coreset reduction (cheap
/// to build; serving cost depends on artifact shape, not on how it was
/// condensed), and a deterministically initialized untrained SGC (forward
/// cost and bit patterns don't care about training).
Workload MakeWorkload(const std::string& dataset, int64_t batch_size) {
  Workload w;
  w.data = MakeDatasetByName(dataset, 17);
  const Graph& train = w.data.train_graph;
  Rng rng(18);
  const int64_t n_select =
      std::max<int64_t>(2 * train.num_classes(), train.NumNodes() / 20);
  const std::vector<int64_t> selected = SelectCoreset(
      CoresetMethod::kRandom, train, train.features(), n_select, rng);
  w.condensed = BuildCoresetGraph(train, selected);
  GnnConfig gc;
  w.model = std::make_unique<Sgc>(train.FeatureDim(), train.num_classes(),
                                  gc, rng);
  w.batches = SplitIntoBatches(w.data.test, batch_size);
  return w;
}

int RunSmoke() {
  std::printf("threads %d\n", ThreadPool::Global().NumThreads());
  Workload w = MakeWorkload("tiny-sim", 8);
  for (const bool graph_batch : {true, false}) {
    const char* tag = graph_batch ? "graph" : "node";
    // Fresh Rngs per path: SGC's Predict is deterministic, but identical
    // streams keep the comparison honest if a stochastic arch lands here.
    Rng rng_a(7), rng_b(7), rng_c(7), rng_d(7);
    const PathStats pr = RunPerRequest(*w.model, w.data.train_graph,
                                       &w.condensed, w.batches, graph_batch,
                                       /*passes=*/1, rng_a);
    const PathStats se = RunSession(*w.model, w.data.train_graph,
                                    &w.condensed, w.batches, graph_batch,
                                    /*passes=*/1, rng_b);
    PrintDigest(tag, "per_request", pr.checksum);
    PrintDigest(tag, "session", se.checksum);
    // Original-graph sessions share the same patching machinery but skip
    // the aM conversion; checksum them too so the determinism gate covers
    // both constructors.
    const PathStats pro = RunPerRequest(*w.model, w.data.train_graph,
                                        /*condensed=*/nullptr, w.batches,
                                        graph_batch, /*passes=*/1, rng_c);
    const PathStats seo = RunSession(*w.model, w.data.train_graph,
                                     /*condensed=*/nullptr, w.batches,
                                     graph_batch, /*passes=*/1, rng_d);
    PrintDigest(std::string("orig_") + tag, "per_request", pro.checksum);
    PrintDigest(std::string("orig_") + tag, "session", seo.checksum);

    // Concurrent serving must reproduce the solo bits at every replica
    // count and with micro-batching. Four closed-loop clients each stream
    // the batch list once, so the order-invariant digest sum must equal
    // 4x the solo additive sum — at K=1 and at an oversubscribed K=8.
    ServingSession solo(w.condensed, *w.model);
    Rng rng_e(7);
    uint64_t solo_sum = 0;
    for (const HeldOutBatch& batch : w.batches) {
      solo_sum += BitDigest(solo.Serve(batch, graph_batch, rng_e));
    }
    ConcurrentOptions k1;
    k1.clients = 4;
    k1.server_threads = 1;
    k1.micro_batch = 1;
    ConcurrentOptions k8;
    k8.clients = 4;
    k8.server_threads = 8;
    k8.micro_batch = 4;
    const PathStats c1 =
        RunConcurrent(*w.model, w.data.train_graph, &w.condensed, w.batches,
                      graph_batch, /*passes=*/1, k1);
    const PathStats c8 =
        RunConcurrent(*w.model, w.data.train_graph, &w.condensed, w.batches,
                      graph_batch, /*passes=*/1, k8);
    const std::string concurrent = std::string("concurrent_") + tag;
    PrintDigest(concurrent, "expected", solo_sum * 4);
    PrintDigest(concurrent, "k1", c1.checksum);
    PrintDigest(concurrent, "k8", c8.checksum);
  }
  return 0;
}

struct Row {
  std::string name;
  PathStats stats;
};

int RunBench(bool json, const ConcurrentOptions& opt) {
  const std::string dataset = "pubmed-sim";
  const int64_t batch_size = 32;
  const int64_t passes = 8;
  Workload w = MakeWorkload(dataset, batch_size);
  std::vector<Row> rows;
  Rng rng(7);
  char concurrent_name[64];
  std::snprintf(concurrent_name, sizeof(concurrent_name),
                "condensed/concurrent_c%d_k%d_b%d", opt.clients,
                opt.server_threads, opt.micro_batch);
  rows.push_back({"condensed/per_request",
                  RunPerRequest(*w.model, w.data.train_graph, &w.condensed,
                                w.batches, /*graph_batch=*/true, passes,
                                rng)});
  rows.push_back({"condensed/session",
                  RunSession(*w.model, w.data.train_graph, &w.condensed,
                             w.batches, /*graph_batch=*/true, passes, rng)});
  rows.push_back({"original/per_request",
                  RunPerRequest(*w.model, w.data.train_graph,
                                /*condensed=*/nullptr, w.batches,
                                /*graph_batch=*/true, passes, rng)});
  rows.push_back({"original/session",
                  RunSession(*w.model, w.data.train_graph,
                             /*condensed=*/nullptr, w.batches,
                             /*graph_batch=*/true, passes, rng)});
  // Closed-loop clients against the replica-pool server. Each client
  // streams `passes` copies, so total request volume is `clients` times a
  // solo row's; req/s is the aggregate across all of them.
  rows.push_back({concurrent_name,
                  RunConcurrent(*w.model, w.data.train_graph, &w.condensed,
                                w.batches, /*graph_batch=*/true, passes,
                                opt)});
  if (json) {
    std::printf("{\n");
    std::printf(
        "  \"note\": \"Serving-throughput baseline: %s, batch_size %lld, "
        "%lld stream passes, graph-batch mode. Session and per-request "
        "logits are bit-identical (ctest check_determinism); p50/p99 are "
        "pow2-bucket approximations from the obs histograms. The "
        "concurrent row drives a ConcurrentServer (%d replicas, queue %d, "
        "micro-batch %d) with %d closed-loop clients; its requests_per_sec "
        "is the aggregate across clients and its p50/p99 are "
        "enqueue-to-reply, so queueing delay is included. context records "
        "the capture machine's CPU count — on a 1-CPU container replicas "
        "time-slice one core, so aggregate concurrent req/s cannot exceed "
        "solo session req/s there and the multi-core gain is invisible; "
        "rerun bench_serving_throughput --json on a multi-core machine and "
        "replace this file.\",\n",
        dataset.c_str(), static_cast<long long>(batch_size),
        static_cast<long long>(passes), opt.server_threads,
        opt.queue_capacity, opt.micro_batch, opt.clients);
    std::printf("  \"context\": {\"num_cpus\": %d, \"threads\": %d},\n",
                ThreadPool::DefaultNumThreads(),
                ThreadPool::Global().NumThreads());
    std::printf("  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::printf("    {\"name\": \"%s\", \"requests\": %lld, "
                  "\"rejected\": %lld, "
                  "\"requests_per_sec\": %.2f, \"p50_us\": %llu, "
                  "\"p99_us\": %llu}%s\n",
                  r.name.c_str(), static_cast<long long>(r.stats.requests),
                  static_cast<long long>(r.stats.rejected),
                  r.stats.requests_per_sec,
                  static_cast<unsigned long long>(r.stats.p50_us),
                  static_cast<unsigned long long>(r.stats.p99_us),
                  i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf("serving throughput on %s (batch %lld, %lld passes, "
                "%d threads)\n",
                dataset.c_str(), static_cast<long long>(batch_size),
                static_cast<long long>(passes),
                ThreadPool::Global().NumThreads());
    for (const Row& r : rows) {
      std::printf("  %-24s %9.2f req/s   p50 %6llu us   p99 %6llu us",
                  r.name.c_str(), r.stats.requests_per_sec,
                  static_cast<unsigned long long>(r.stats.p50_us),
                  static_cast<unsigned long long>(r.stats.p99_us));
      if (r.stats.rejected > 0) {
        std::printf("   rejected %lld",
                    static_cast<long long>(r.stats.rejected));
      }
      std::printf("\n");
    }
    const double cond_speedup =
        rows[1].stats.requests_per_sec / rows[0].stats.requests_per_sec;
    const double orig_speedup =
        rows[3].stats.requests_per_sec / rows[2].stats.requests_per_sec;
    const double concurrent_vs_solo =
        rows[4].stats.requests_per_sec / rows[1].stats.requests_per_sec;
    std::printf("  session speedup: condensed %.2fx, original %.2fx\n",
                cond_speedup, orig_speedup);
    std::printf("  concurrent aggregate vs solo session: %.2fx "
                "(%d clients, %d replicas, %d cpus)\n",
                concurrent_vs_solo, opt.clients, opt.server_threads,
                ThreadPool::DefaultNumThreads());
  }
  return 0;
}

}  // namespace
}  // namespace mcond

int main(int argc, char** argv) {
  bool json = false;
  mcond::ConcurrentOptions opt;
  const auto int_flag = [&](int i, const char* name, int* out) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      *out = std::atoi(argv[i + 1]);
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return mcond::RunSmoke();
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--reject") == 0) opt.reject = true;
    if (std::strcmp(argv[i], "--timeline") == 0 && i + 1 < argc) {
      opt.timeline_path = argv[++i];
      continue;
    }
    if (int_flag(i, "--clients", &opt.clients) ||
        int_flag(i, "--server_threads", &opt.server_threads) ||
        int_flag(i, "--queue", &opt.queue_capacity) ||
        int_flag(i, "--micro_batch", &opt.micro_batch) ||
        int_flag(i, "--timeline_interval_ms", &opt.timeline_interval_ms)) {
      ++i;
    }
  }
  return mcond::RunBench(json, opt);
}
