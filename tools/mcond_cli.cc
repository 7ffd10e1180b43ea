// Command-line front end for the MCond workflow:
//
//   mcond_cli datasets
//       List the built-in simulated datasets.
//   mcond_cli condense --dataset reddit-sim --ratio 0.02 --out S.bin
//       Run Algorithm 1 and write the condensed artifact.
//       --mem_budget_mb M runs the out-of-core path: the training graph is
//       spilled to segment stores next to --out and condensation streams it
//       under an M-MB mapped-segment budget, with results bit-identical to
//       the resident path (docs/performance.md "Out-of-core condensation").
//   mcond_cli inspect S.bin
//       Print artifact statistics.
//   mcond_cli serve --dataset reddit-sim --artifact S.bin [--node-batch]
//             [--serve_concurrency K] [--serve_queue N]
//       Train SGC on the artifact and serve the dataset's test batch through
//       a ServingSession on each graph, reporting accuracy / latency /
//       memory vs the original graph.
//       --serve_concurrency K additionally streams the test split through
//       a ConcurrentServer of K session replicas behind a bounded request
//       queue of --serve_queue N slots (default 32), verifying the
//       concurrent logits bit-match a solo session and reporting the
//       aggregate throughput and pool memory (docs/performance.md).
//   mcond_cli serve --listen <port> --registry <dir> [--bind ADDR]
//             [--serve_concurrency K] [--serve_queue N] [--quota_rps R]
//             [--train_epochs E] [--duration_s S]
//       Network mode (docs/serving.md): load every artifact in <dir> as a
//       tenant of a ModelRegistry (tenant name = file stem), train each
//       with the default SGC factory, and serve the mcond wire protocol on
//       --bind:--listen (port 0 picks an ephemeral port, printed at
//       startup). Runs until SIGINT/SIGTERM, or for --duration_s seconds.
//       --quota_rps adds a per-tenant token-bucket admission quota.
//
// All flags accept both "--key value" and "--key=value" spellings
// (tools/check_cli_flags.sh holds this invariant across subcommands).
//
// Observability flags, accepted by every command (docs/observability.md):
//   --log_level debug|info|warn|error|off   (default: MCOND_LOG_LEVEL)
//   --trace_out trace.json    enable tracing, write Chrome trace JSON
//   --metrics_out metrics.json  write a metrics-registry snapshot
//   --metrics_prom_out metrics.prom  write a Prometheus text snapshot
//   --metrics_export_path m.jsonl    live exporter: append one JSONL
//                                    time-series line per interval
//   --metrics_export_prom m.prom     live exporter: rewrite a Prometheus
//                                    text file per interval
//   --metrics_export_interval_ms N   exporter tick period (default 1000)
//
// Performance flags (docs/performance.md):
//   --threads N    kernel thread-pool width (default: MCOND_NUM_THREADS,
//                  else hardware concurrency); results are identical at
//                  every setting
//   --simd auto|avx2|scalar   kernel SIMD tier (default: MCOND_SIMD, else
//                  auto). avx2 downgrades to scalar with a warning when the
//                  host or build lacks AVX2+FMA. The selected tier is
//                  reported at startup (INFO log + mcond.simd.tier gauge,
//                  visible in --metrics_out snapshots).
//   --prefetch_segments N   out-of-core segment prefetch depth (default:
//                  MCOND_PREFETCH_SEGMENTS, else 2; 0 disables). Streamed
//                  kernels overlap the next segment's mmap + fault-in with
//                  compute; results are bit-identical at every depth. The
//                  depth is recorded in the mcond.shard.prefetch.depth
//                  gauge (visible in --metrics_out snapshots).
//
// Exit code 0 on success; errors print a Status message to stderr.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "condense/artifact_io.h"
#include "condense/mcond.h"
#include "core/parallel.h"
#include "core/segment_prefetcher.h"
#include "core/simd.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "graph/sharded_ops.h"
#include "eval/inference.h"
#include "net/model_registry.h"
#include "net/net_server.h"
#include "nn/trainer.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "serve/concurrent_server.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

/// Minimal --key value flag parser; positional args collected in order.
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      const size_t eq = key.find('=');
      if (eq != std::string::npos) {
        // --key=value form.
        args.flags[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "1";  // Boolean flag.
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

std::string FlagOr(const Args& args, const std::string& key,
                   const std::string& fallback) {
  const auto it = args.flags.find(key);
  return it == args.flags.end() ? fallback : it->second;
}

int CmdDatasets() {
  std::cout << "name         nodes   classes  feat  avg-deg  ratios\n";
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    std::cout << spec.name;
    for (size_t i = spec.name.size(); i < 13; ++i) std::cout << ' ';
    std::cout << spec.sbm.num_nodes << "    " << spec.sbm.num_classes
              << "        " << spec.sbm.feature_dim << "    "
              << spec.sbm.avg_degree << "     ";
    for (double r : spec.reduction_ratios) std::cout << r << " ";
    std::cout << "\n";
  }
  return 0;
}

int CmdCondense(const Args& args) {
  const std::string dataset = FlagOr(args, "dataset", "tiny-sim");
  const double ratio = std::stod(FlagOr(args, "ratio", "0.05"));
  const uint64_t seed = std::stoull(FlagOr(args, "seed", "1"));
  const std::string out = FlagOr(args, "out", "condensed.bin");
  StatusOr<DatasetSpec> spec = FindDatasetSpec(dataset);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 1;
  }
  DatasetSpec s = spec.value();
  if (args.flags.count("epochs") > 0) {
    s.condensation_epochs = std::stoll(args.flags.at("epochs"));
  }
  InductiveDataset data = MakeDataset(s, seed);
  const int64_t n_syn = SyntheticNodeCount(data.train_graph, ratio);
  std::cout << "condensing " << data.train_graph.NumNodes() << " nodes -> "
            << n_syn << " synthetic nodes (" << s.condensation_epochs
            << " epochs)...\n";
  MCondConfig config;
  config.outer_rounds =
      std::max<int64_t>(1, s.condensation_epochs / 15);
  config.verbose = args.flags.count("verbose") > 0;
  const int64_t mem_budget_mb =
      std::stoll(FlagOr(args, "mem_budget_mb", "0"));
  MCondResult result;
  if (mem_budget_mb > 0) {
    const std::string shard_dir = out + ".shards";
    StatusOr<ShardedGraph> sharded = ShardGraph(
        data.train_graph, shard_dir, ShardOptions(),
        mem_budget_mb * (int64_t{1} << 20));
    if (!sharded.ok()) {
      std::cerr << sharded.status().ToString() << "\n";
      return 1;
    }
    std::cout << "out-of-core: "
              << sharded.value().adjacency->NumSegments() << "+"
              << sharded.value().normalized->NumSegments()
              << " segments in " << shard_dir << " under " << mem_budget_mb
              << " MB budget\n";
    result = RunMCondSharded(sharded.value(), data.val, n_syn, config, seed);
    std::cout << "peak RSS " << obs::RecordRssMetrics() / (1 << 20)
              << " MB\n";
  } else {
    result = RunMCond(data.train_graph, data.val, n_syn, config, seed);
  }
  Status status = SaveCondensedGraph(out, result.condensed);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << out << " ("
            << result.condensed.StorageBytes() / 1024 << " KB; "
            << result.condensed.graph.NumEdges() << " edges, mapping nnz "
            << result.condensed.mapping.Nnz() << ")\n";
  return 0;
}

int CmdInspect(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: mcond_cli inspect <artifact>\n";
    return 1;
  }
  StatusOr<CondensedGraph> loaded = LoadCondensedGraph(args.positional[0]);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  const CondensedGraph& cg = loaded.value();
  std::cout << "synthetic nodes:   " << cg.graph.NumNodes() << "\n";
  std::cout << "synthetic edges:   " << cg.graph.NumEdges() << "\n";
  std::cout << "feature dim:       " << cg.graph.FeatureDim() << "\n";
  std::cout << "classes:           " << cg.graph.num_classes() << "\n";
  std::cout << "mapping:           " << cg.mapping.rows() << " x "
            << cg.mapping.cols() << ", nnz " << cg.mapping.Nnz() << "\n";
  std::cout << "storage:           " << cg.StorageBytes() / 1024 << " KB\n";
  const std::vector<int64_t> counts = cg.graph.ClassCounts();
  std::cout << "class counts:      ";
  for (int64_t c : counts) std::cout << c << " ";
  std::cout << "\n";
  return 0;
}

std::atomic<bool> g_interrupted{false};

void HandleStopSignal(int /*sig*/) { g_interrupted.store(true); }

/// `serve --listen P --registry DIR`: the long-running multi-tenant
/// network front-end over a directory of condensed artifacts.
int CmdServeNet(const Args& args) {
  const std::string registry_dir = FlagOr(args, "registry", "");
  if (registry_dir.empty()) {
    std::cerr << "serve --listen requires --registry <dir>\n";
    return 1;
  }
  int port = 0;
  try {
    port = std::stoi(FlagOr(args, "listen", "0"));
  } catch (...) {
    port = -1;
  }
  if (port < 0 || port > 65535) {
    std::cerr << "bad --listen port\n";
    return 1;
  }
  net::TenantConfig tenant_cfg;
  tenant_cfg.num_replicas = std::stoi(FlagOr(args, "serve_concurrency", "1"));
  tenant_cfg.queue_capacity = std::stoi(FlagOr(args, "serve_queue", "64"));
  tenant_cfg.quota_rps = std::stod(FlagOr(args, "quota_rps", "0"));
  const int64_t train_epochs =
      std::stoll(FlagOr(args, "train_epochs", "300"));
  const uint64_t seed = std::stoull(FlagOr(args, "seed", "1"));

  net::ModelRegistry registry(
      net::ModelRegistry::DefaultSgcFactory(train_epochs, seed));
  StatusOr<int> added = registry.LoadDirectory(registry_dir, tenant_cfg);
  if (!added.ok()) {
    std::cerr << added.status().ToString() << "\n";
    return 1;
  }
  net::NetServerOptions options;
  options.bind_address = FlagOr(args, "bind", "127.0.0.1");
  options.port = port;
  net::NetServer server(registry, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }
  // The bench harness and smoke scripts scrape this line for the ephemeral
  // port, so it goes to stdout unbuffered.
  std::cout << "serving " << added.value() << " tenant(s) [";
  bool first = true;
  for (const std::string& name : registry.TenantNames()) {
    std::cout << (first ? "" : " ") << name;
    first = false;
  }
  std::cout << "] on " << options.bind_address << ":" << server.port()
            << std::endl;

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const double duration_s = std::stod(FlagOr(args, "duration_s", "0"));
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(duration_s * 1e3));
  while (!g_interrupted.load()) {
    if (duration_s > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::cout << "net server stopped\n";
  return 0;
}

int CmdServe(const Args& args) {
  if (args.flags.count("listen") > 0) return CmdServeNet(args);
  const std::string dataset = FlagOr(args, "dataset", "tiny-sim");
  const std::string artifact = FlagOr(args, "artifact", "condensed.bin");
  const uint64_t seed = std::stoull(FlagOr(args, "seed", "1"));
  const bool graph_batch = args.flags.count("node-batch") == 0;
  StatusOr<CondensedGraph> loaded = LoadCondensedGraph(artifact);
  if (!loaded.ok()) {
    std::cerr << loaded.status().ToString() << "\n";
    return 1;
  }
  const CondensedGraph& cg = loaded.value();
  InductiveDataset data = MakeDatasetByName(dataset, seed);
  if (cg.mapping.rows() != data.train_graph.NumNodes()) {
    std::cerr << "artifact was condensed from a different graph (mapping "
                 "has "
              << cg.mapping.rows() << " rows, dataset has "
              << data.train_graph.NumNodes() << " train nodes)\n";
    return 1;
  }
  Rng rng(seed + 1);
  GnnConfig gc;
  std::unique_ptr<GnnModel> model =
      MakeGnn(GnnArch::kSgc, cg.graph.FeatureDim(), cg.graph.num_classes(),
              gc, rng);
  GraphOperators syn_ops = GraphOperators::FromGraph(cg.graph);
  std::vector<int64_t> all(cg.graph.NumNodes());
  std::iota(all.begin(), all.end(), 0);
  TrainConfig tc;
  tc.epochs = 300;
  TrainNodeClassifier(*model, syn_ops, cg.graph.features(),
                      cg.graph.labels(), all, tc, rng);
  InferenceResult on_syn =
      ServeOnCondensed(*model, cg, data.test, graph_batch, rng, 3);
  InferenceResult on_orig =
      ServeOnOriginal(*model, data.train_graph, data.test, graph_batch, rng, 3);
  std::cout << (graph_batch ? "graph" : "node") << "-batch serving of "
            << data.test.size() << " inductive nodes\n";
  std::cout << "  synthetic: acc " << on_syn.accuracy << ", "
            << on_syn.seconds * 1e3 << " ms (min "
            << on_syn.seconds_min * 1e3 << "), "
            << on_syn.memory_bytes / 1024 << " KB\n";
  std::cout << "  original:  acc " << on_orig.accuracy << ", "
            << on_orig.seconds * 1e3 << " ms (min "
            << on_orig.seconds_min * 1e3 << "), "
            << on_orig.memory_bytes / 1024 << " KB\n";
  std::cout << "  speedup " << on_orig.seconds / on_syn.seconds
            << "x, memory saving "
            << static_cast<double>(on_orig.memory_bytes) /
                   on_syn.memory_bytes
            << "x\n";

  const int concurrency = std::stoi(FlagOr(args, "serve_concurrency", "0"));
  if (concurrency > 0) {
    const int queue_slots = std::stoi(FlagOr(args, "serve_queue", "32"));
    const std::vector<HeldOutBatch> batches =
        SplitIntoBatches(data.test, 32);
    // Solo reference for the exactness check.
    std::vector<Tensor> expect;
    {
      ServingSession solo(cg, *model);
      Rng solo_rng(seed + 2);
      for (const HeldOutBatch& batch : batches) {
        expect.push_back(solo.Serve(batch, graph_batch, solo_rng));
      }
    }
    ConcurrentServer::Config cfg;
    cfg.num_replicas = concurrency;
    cfg.queue_capacity = queue_slots;
    ConcurrentServer server(SessionBase::Build(cg, model->operator_kind()),
                            *model, cfg);
    std::vector<Tensor> outs(batches.size());
    std::vector<ServeTiming> timings(batches.size());
    obs::TraceSpan wall("cli.serve_concurrent", /*always_time=*/true);
    for (size_t i = 0; i < batches.size(); ++i) {
      // Admission blocks on a full queue (the default backpressure), so a
      // burst larger than --serve_queue is absorbed without rejects.
      ServeTiming* timing = &timings[i];
      const Status st =
          server.Submit(batches[i], graph_batch, &outs[i],
                        [timing](const ServeTiming& t) { *timing = t; });
      if (!st.ok()) {
        std::cerr << st.ToString() << "\n";
        return 1;
      }
    }
    // Shutdown drains every admitted request before joining the workers.
    server.Shutdown();
    const double seconds = wall.ElapsedSeconds();
    bool identical = true;
    uint64_t queue_wait_us = 0, service_us = 0;
    for (size_t i = 0; i < outs.size(); ++i) {
      identical = identical && outs[i].SameShape(expect[i]) &&
                  std::memcmp(outs[i].data(), expect[i].data(),
                              static_cast<size_t>(outs[i].size()) *
                                  sizeof(float)) == 0;
      queue_wait_us += timings[i].queue_wait_us();
      service_us += timings[i].service_us();
    }
    std::cout << "  concurrent: " << concurrency << " replicas, queue "
              << queue_slots << ": " << batches.size() << " requests in "
              << seconds * 1e3 << " ms ("
              << (seconds > 0.0 ? batches.size() / seconds : 0.0)
              << " req/s aggregate; mean queue wait "
              << queue_wait_us / batches.size() << " us + service "
              << service_us / batches.size() << " us), pool memory "
              << server.pool().memory_bytes() / 1024
              << " KB, logits bit-identical to solo session: "
              << (identical ? "yes" : "NO") << "\n";
    if (!identical) return 1;
  }
  return 0;
}

/// Applies --log_level / --trace_out before the command runs. Returns
/// false on an unparseable level.
bool SetupObservability(const Args& args) {
  obs::InitObservabilityFromEnv();
  const std::string level_text = FlagOr(args, "log_level", "");
  if (!level_text.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(level_text, &level)) {
      std::cerr << "bad --log_level '" << level_text
                << "' (want debug|info|warn|error|off)\n";
      return false;
    }
    obs::SetMinLogLevel(level);
  }
  if (!FlagOr(args, "trace_out", "").empty()) obs::EnableTracing(true);
  const std::string threads_text = FlagOr(args, "threads", "");
  if (!threads_text.empty()) {
    int threads = 0;
    try {
      threads = std::stoi(threads_text);
    } catch (...) {
    }
    if (threads < 1) {
      std::cerr << "bad --threads '" << threads_text
                << "' (want a positive integer)\n";
      return false;
    }
    ThreadPool::Global().SetNumThreads(threads);
  }
  const std::string simd_text = FlagOr(args, "simd", "");
  if (!simd_text.empty()) {
    if (!simd::SetTierFromSpec(simd_text)) {
      std::cerr << "bad --simd '" << simd_text
                << "' (want auto|avx2|scalar)\n";
      return false;
    }
  } else {
    // Resolve MCOND_SIMD now so the one INFO line and the mcond.simd.tier
    // gauge land at startup (and in --metrics_out snapshots) instead of at
    // the first kernel call.
    (void)simd::ActiveTier();
  }
  const std::string prefetch_text = FlagOr(args, "prefetch_segments", "");
  if (!prefetch_text.empty()) {
    int prefetch = -1;
    try {
      prefetch = std::stoi(prefetch_text);
    } catch (...) {
    }
    if (prefetch < 0) {
      std::cerr << "bad --prefetch_segments '" << prefetch_text
                << "' (want an integer >= 0; 0 disables prefetch)\n";
      return false;
    }
    SetPrefetchSegments(prefetch);
  } else {
    // Resolve MCOND_PREFETCH_SEGMENTS now so the mcond.shard.prefetch.depth
    // gauge lands in --metrics_out snapshots even when no store is opened.
    (void)PrefetchSegments();
  }
  return true;
}

/// Builds (but does not start) the live exporter when any of the
/// --metrics_export_* flags are present. Returns nullptr when disabled.
std::unique_ptr<obs::MetricsExporter> MakeMetricsExporter(const Args& args) {
  obs::MetricsExporterOptions options;
  options.jsonl_path = FlagOr(args, "metrics_export_path", "");
  options.prometheus_path = FlagOr(args, "metrics_export_prom", "");
  if (options.jsonl_path.empty() && options.prometheus_path.empty()) {
    return nullptr;
  }
  try {
    options.interval_ms =
        std::stoi(FlagOr(args, "metrics_export_interval_ms", "1000"));
  } catch (...) {
    options.interval_ms = 0;  // Start() rejects it with a clear message.
  }
  return std::make_unique<obs::MetricsExporter>(options);
}

/// Writes --trace_out / --metrics_out / --metrics_prom_out files after the
/// command ran.
int ExportObservability(const Args& args, int command_rc) {
  const std::string trace_out = FlagOr(args, "trace_out", "");
  if (!trace_out.empty()) {
    const Status status = obs::WriteTraceJson(trace_out);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote trace (" << obs::TraceEventsRecorded()
              << " spans) to " << trace_out << "\n";
  }
  const std::string metrics_out = FlagOr(args, "metrics_out", "");
  if (!metrics_out.empty()) {
    const Status status = obs::WriteMetricsJson(metrics_out);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote metrics to " << metrics_out << "\n";
  }
  const std::string prom_out = FlagOr(args, "metrics_prom_out", "");
  if (!prom_out.empty()) {
    const Status status = obs::WriteMetricsPrometheus(prom_out);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "wrote prometheus metrics to " << prom_out << "\n";
  }
  return command_rc;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: mcond_cli <datasets|condense|inspect|serve> "
                 "[--log_level L] [--trace_out F] [--metrics_out F] "
                 "[--metrics_prom_out F] [--metrics_export_path F] "
                 "[--metrics_export_prom F] [--metrics_export_interval_ms N] "
                 "[--threads N] [--simd auto|avx2|scalar] "
                 "[--prefetch_segments N] [flags]\n";
    return 1;
  }
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (!SetupObservability(args)) return 1;
  std::unique_ptr<obs::MetricsExporter> exporter = MakeMetricsExporter(args);
  if (exporter != nullptr) {
    const Status status = exporter->Start();
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }
  int rc;
  if (cmd == "datasets") {
    rc = CmdDatasets();
  } else if (cmd == "condense") {
    rc = CmdCondense(args);
  } else if (cmd == "inspect") {
    rc = CmdInspect(args);
  } else if (cmd == "serve") {
    rc = CmdServe(args);
  } else {
    std::cerr << "unknown command: " << cmd << "\n";
    return 1;
  }
  // Stop (final tick + join) before the one-shot exports so --metrics_out
  // and the exporter's last line agree on the final counter values.
  if (exporter != nullptr) exporter->Stop();
  return ExportObservability(args, rc);
}

}  // namespace
}  // namespace mcond

int main(int argc, char** argv) { return mcond::Run(argc, argv); }
