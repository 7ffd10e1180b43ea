// Network serving benchmark: drives the NetServer front-end over loopback
// TCP and compares it with in-process ConcurrentServer calls on the SAME
// registry tenants, so the reported delta is pure wire cost (framing +
// syscalls + the IO-thread hop) — the GNN math, replica pool, and queue
// are identical on both sides (docs/serving.md).
//
// Two tenants ("alpha", "beta" — distinct random-coreset artifacts of one
// dataset) serve from one ModelRegistry; closed-loop clients alternate
// across them, so every row exercises the multi-tenant path.
//
// Modes:
//   (default)  human-readable summary on pubmed-sim: an in-process row and
//              a loopback row for one configuration (--clients C
//              --server_threads K [--queue N] [--micro_batch B] [--passes
//              P], defaults 8/4/64/4/8), plus the derived net overhead.
//   --json     BENCH_kernels.json-style JSON on stdout (BENCH_net.json is
//              a committed snapshot of this).
//   --smoke    tiny-sim, one pass: `digest k<K>_<tenant>_<mode>
//              inproc|net` — ordered bit digests of every tenant's logit
//              stream served in-process and over loopback, at server
//              replica counts K=1 and K=8, in graph- and node-batch modes,
//              with the two tenants' clients running CONCURRENTLY against
//              one registry. tools/check_determinism.sh requires every net
//              digest to equal its inproc oracle — the loopback
//              bit-identity gate — and every line identical across thread
//              widths and prefetch depths.
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
#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "net/model_registry.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "nn/sgc.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mcond {
namespace {

const char* const kTenants[] = {"alpha", "beta"};

/// Registry with two deterministic random-coreset tenants over `data` and
/// an untrained deterministically-initialized SGC per tenant (forward cost
/// and bit patterns don't care about training; the factory must only be
/// deterministic).
std::unique_ptr<net::ModelRegistry> MakeRegistry(
    const InductiveDataset& data, int replicas, int queue_capacity,
    int micro_batch) {
  auto factory = [](const CondensedGraph& cg)
      -> StatusOr<std::unique_ptr<GnnModel>> {
    GnnConfig gc;
    Rng rng(18);
    return std::unique_ptr<GnnModel>(std::make_unique<Sgc>(
        cg.graph.FeatureDim(), cg.graph.num_classes(), gc, rng));
  };
  auto registry = std::make_unique<net::ModelRegistry>(factory);
  net::TenantConfig cfg;
  cfg.num_replicas = replicas;
  cfg.queue_capacity = queue_capacity;
  cfg.micro_batch = micro_batch;
  const Graph& train = data.train_graph;
  const int64_t n_select =
      std::max<int64_t>(2 * train.num_classes(), train.NumNodes() / 20);
  uint64_t seed = 18;
  for (const char* name : kTenants) {
    Rng rng(seed++);
    const std::vector<int64_t> selected = SelectCoreset(
        CoresetMethod::kRandom, train, train.features(), n_select, rng);
    const Status st =
        registry->AddTenant(name, BuildCoresetGraph(train, selected), cfg);
    MCOND_CHECK(st.ok()) << st.ToString();
  }
  return registry;
}

/// Ordered digest of one tenant's batch stream served in-process through
/// its own ConcurrentServer (the reference side of the loopback gate).
uint64_t InprocDigest(net::Tenant* tenant,
                      const std::vector<HeldOutBatch>& batches,
                      bool graph_batch) {
  uint64_t h = kBitDigestSeed;
  Tensor out;
  for (const HeldOutBatch& batch : batches) {
    const Status st = tenant->server->ServeSync(batch, graph_batch, &out);
    MCOND_CHECK(st.ok()) << st.ToString();
    h = FoldBits(h, out);
  }
  return h;
}

/// Ordered digest of the same stream served over loopback TCP.
uint64_t NetDigest(int port, const char* tenant,
                   const std::vector<HeldOutBatch>& batches,
                   bool graph_batch) {
  net::NetClient client;
  Status st = client.Connect("127.0.0.1", port);
  MCOND_CHECK(st.ok()) << st.ToString();
  uint64_t h = kBitDigestSeed;
  net::NetResponse resp;
  for (const HeldOutBatch& batch : batches) {
    st = client.Call(tenant, batch, graph_batch, &resp);
    MCOND_CHECK(st.ok()) << st.ToString();
    MCOND_CHECK(resp.status == net::WireStatus::kOk)
        << net::WireStatusName(resp.status) << ": " << resp.message;
    h = FoldBits(h, resp.logits);
  }
  return h;
}

int RunSmoke() {
  std::printf("threads %d\n", ThreadPool::Global().NumThreads());
  InductiveDataset data = MakeDatasetByName("tiny-sim", 17);
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data.test, 8);
  for (const int k : {1, 8}) {
    std::unique_ptr<net::ModelRegistry> registry =
        MakeRegistry(data, k, /*queue_capacity=*/64,
                     /*micro_batch=*/k == 1 ? 1 : 4);
    net::NetServerOptions options;  // ephemeral loopback port
    net::NetServer server(*registry, options);
    const Status st = server.Start();
    MCOND_CHECK(st.ok()) << st.ToString();
    for (const bool graph_batch : {true, false}) {
      const char* tag = graph_batch ? "graph" : "node";
      // In-process reference digests, then the SAME streams over the
      // socket with both tenants' clients running concurrently against
      // the one registry.
      uint64_t inproc[2];
      uint64_t net[2];
      for (int t = 0; t < 2; ++t) {
        inproc[t] = InprocDigest(registry->Find(kTenants[t]), batches,
                                 graph_batch);
      }
      std::vector<std::thread> clients;
      for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
          net[t] = NetDigest(server.port(), kTenants[t], batches,
                             graph_batch);
        });
      }
      for (std::thread& c : clients) c.join();
      for (int t = 0; t < 2; ++t) {
        const std::string group = "k" + std::to_string(k) + "_" +
                                  kTenants[t] + "_" + tag;
        PrintDigest(group, "inproc", inproc[t]);
        PrintDigest(group, "net", net[t]);
      }
    }
    server.Stop();
  }
  return 0;
}

struct BenchOptions {
  int clients = 8;
  int server_threads = 4;
  int queue_capacity = 64;
  int micro_batch = 4;
  int passes = 8;
};

struct RowStats {
  int64_t requests = 0;
  int64_t rejected = 0;
  double requests_per_sec = 0.0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
};

/// Closed-loop in-process row: C client threads alternate across the two
/// tenants' ConcurrentServers directly, no socket.
RowStats RunInproc(net::ModelRegistry& registry,
                   const std::vector<HeldOutBatch>& batches,
                   const BenchOptions& opt) {
  obs::Histogram& hist = obs::GetHistogram("mcond.net.bench_inproc_us");
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> rejected{0};
  obs::TraceSpan wall("bench.net_inproc", /*always_time=*/true);
  std::vector<std::thread> threads;
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      net::Tenant* tenant = registry.Find(kTenants[c % 2]);
      Tensor out;
      int64_t done = 0, shed = 0;
      for (int pass = 0; pass < opt.passes; ++pass) {
        for (const HeldOutBatch& batch : batches) {
          obs::TraceSpan span("bench.inproc_call", /*always_time=*/true);
          const Status st =
              tenant->server->ServeSync(batch, /*graph_batch=*/true, &out);
          if (!st.ok()) {  // bounded-queue reject under oversubscription
            ++shed;
            continue;
          }
          hist.Record(span.ElapsedMicros());
          ++done;
        }
      }
      completed.fetch_add(done);
      rejected.fetch_add(shed);
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  RowStats stats;
  stats.requests = completed.load();
  stats.rejected = rejected.load();
  stats.requests_per_sec = seconds > 0.0 ? stats.requests / seconds : 0.0;
  stats.p50_us = obs::HistogramApproxQuantile(hist, 0.5);
  stats.p99_us = obs::HistogramApproxQuantile(hist, 0.99);
  return stats;
}

/// The same closed loop through loopback TCP: one NetClient connection per
/// client thread. p50/p99 are CLIENT-observed round-trip times, so framing,
/// syscalls, and the IO-thread hop are all inside the measurement.
RowStats RunNet(int port, const std::vector<HeldOutBatch>& batches,
                const BenchOptions& opt) {
  obs::Histogram& hist = obs::GetHistogram("mcond.net.bench_call_us");
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> rejected{0};
  obs::TraceSpan wall("bench.net_loopback", /*always_time=*/true);
  std::vector<std::thread> threads;
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      net::NetClient client;
      Status st = client.Connect("127.0.0.1", port);
      MCOND_CHECK(st.ok()) << st.ToString();
      net::NetResponse resp;
      int64_t done = 0, shed = 0;
      for (int pass = 0; pass < opt.passes; ++pass) {
        for (const HeldOutBatch& batch : batches) {
          obs::TraceSpan span("bench.net_call", /*always_time=*/true);
          st = client.Call(kTenants[c % 2], batch, /*graph_batch=*/true,
                           &resp);
          MCOND_CHECK(st.ok()) << st.ToString();
          if (resp.status == net::WireStatus::kRejected) {
            ++shed;
            continue;
          }
          MCOND_CHECK(resp.status == net::WireStatus::kOk)
              << net::WireStatusName(resp.status) << ": " << resp.message;
          hist.Record(span.ElapsedMicros());
          ++done;
        }
      }
      completed.fetch_add(done);
      rejected.fetch_add(shed);
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  RowStats stats;
  stats.requests = completed.load();
  stats.rejected = rejected.load();
  stats.requests_per_sec = seconds > 0.0 ? stats.requests / seconds : 0.0;
  stats.p50_us = obs::HistogramApproxQuantile(hist, 0.5);
  stats.p99_us = obs::HistogramApproxQuantile(hist, 0.99);
  return stats;
}

int RunBench(bool json, const BenchOptions& opt) {
  const std::string dataset = "pubmed-sim";
  const int64_t batch_size = 32;
  InductiveDataset data = MakeDatasetByName(dataset, 17);
  const std::vector<HeldOutBatch> batches =
      SplitIntoBatches(data.test, batch_size);
  std::unique_ptr<net::ModelRegistry> registry = MakeRegistry(
      data, opt.server_threads, opt.queue_capacity, opt.micro_batch);

  const RowStats inproc = RunInproc(*registry, batches, opt);

  net::NetServerOptions options;  // ephemeral loopback port
  options.max_connections = opt.clients + 4;
  net::NetServer server(*registry, options);
  const Status st = server.Start();
  MCOND_CHECK(st.ok()) << st.ToString();
  const RowStats net = RunNet(server.port(), batches, opt);
  server.Stop();

  char inproc_name[64], net_name[64];
  std::snprintf(inproc_name, sizeof(inproc_name),
                "inproc/concurrent_c%d_k%d", opt.clients,
                opt.server_threads);
  std::snprintf(net_name, sizeof(net_name), "net/loopback_c%d_k%d",
                opt.clients, opt.server_threads);
  if (json) {
    std::printf("{\n");
    std::printf(
        "  \"note\": \"Loopback network serving vs in-process on the same "
        "two-tenant ModelRegistry: %s, batch_size %lld, %d passes, %d "
        "closed-loop clients alternating across tenants, %d replicas per "
        "tenant, queue %d, micro-batch %d, graph-batch mode. The inproc "
        "row calls ConcurrentServer::ServeSync directly; the net row "
        "drives the identical tenants through the wire protocol over "
        "loopback TCP, so the delta is pure wire cost (framing, syscalls, "
        "IO-thread hop). p50/p99 are client-observed round trips from "
        "pow2-bucket histograms. Loopback logits are bit-identical to "
        "in-process (ctest check_determinism). context records the capture "
        "machine's CPU count; rerun bench_net_throughput --json on real "
        "hardware and replace this file.\",\n",
        dataset.c_str(), static_cast<long long>(batch_size), opt.passes,
        opt.clients, opt.server_threads, opt.queue_capacity,
        opt.micro_batch);
    std::printf("  \"context\": {\"num_cpus\": %d, \"threads\": %d},\n",
                ThreadPool::DefaultNumThreads(),
                ThreadPool::Global().NumThreads());
    std::printf("  \"benchmarks\": [\n");
    const RowStats* rows[] = {&inproc, &net};
    const char* names[] = {inproc_name, net_name};
    for (int i = 0; i < 2; ++i) {
      std::printf("    {\"name\": \"%s\", \"requests\": %lld, "
                  "\"rejected\": %lld, \"requests_per_sec\": %.2f, "
                  "\"p50_us\": %llu, \"p99_us\": %llu}%s\n",
                  names[i], static_cast<long long>(rows[i]->requests),
                  static_cast<long long>(rows[i]->rejected),
                  rows[i]->requests_per_sec,
                  static_cast<unsigned long long>(rows[i]->p50_us),
                  static_cast<unsigned long long>(rows[i]->p99_us),
                  i == 0 ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf("network serving on %s (batch %lld, %d passes, %d clients, "
                "%d replicas/tenant, 2 tenants)\n",
                dataset.c_str(), static_cast<long long>(batch_size),
                opt.passes, opt.clients, opt.server_threads);
    const RowStats* rows[] = {&inproc, &net};
    const char* names[] = {inproc_name, net_name};
    for (int i = 0; i < 2; ++i) {
      std::printf("  %-26s %9.2f req/s   p50 %6llu us   p99 %6llu us",
                  names[i], rows[i]->requests_per_sec,
                  static_cast<unsigned long long>(rows[i]->p50_us),
                  static_cast<unsigned long long>(rows[i]->p99_us));
      if (rows[i]->rejected > 0) {
        std::printf("   rejected %lld",
                    static_cast<long long>(rows[i]->rejected));
      }
      std::printf("\n");
    }
    if (net.requests_per_sec > 0.0) {
      std::printf("  net overhead: %.1f%% req/s, +%lld us p50\n",
                  (inproc.requests_per_sec / net.requests_per_sec - 1.0) *
                      100.0,
                  static_cast<long long>(net.p50_us) -
                      static_cast<long long>(inproc.p50_us));
    }
  }
  return 0;
}

}  // namespace
}  // namespace mcond

int main(int argc, char** argv) {
  bool json = false;
  mcond::BenchOptions opt;
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
    if (int_flag(i, "--clients", &opt.clients) ||
        int_flag(i, "--server_threads", &opt.server_threads) ||
        int_flag(i, "--queue", &opt.queue_capacity) ||
        int_flag(i, "--micro_batch", &opt.micro_batch) ||
        int_flag(i, "--passes", &opt.passes)) {
      ++i;
    }
  }
  return mcond::RunBench(json, opt);
}
