// Serving determinism smoke: the bit-identity gates of the Eq. 11 serving
// stack, one pass over tiny-sim. Prints `digest <group> <variant> <hex>`
// lines (core/bit_digest.h); tools/check_determinism.sh requires every line
// to equal its group's first line, and every line identical across thread
// widths and prefetch depths.
//
//   {graph,node,orig_graph,orig_node} per_request|session
//       ordered logit digests of the ComposeDeployment oracle (every batch
//       recomposed from scratch) and of one persistent ServingSession, over
//       the condensed and over the original (`orig_`) graph.
//   concurrent_{graph,node} expected|k1|k8
//       order-invariant digest sums (each request's digest added mod 2^64,
//       so any completion order gives the same total; XOR would cancel
//       identical repeats) of four closed-loop clients through a
//       ConcurrentServer at K=1 and at a micro-batched K=8, against four
//       times the solo session's sum.
//   k{1,8}_{alpha,beta}_{graph,node} inproc|net
//       ordered digests of two registry tenants' streams served in-process
//       and over loopback TCP through a NetServer, with both tenants'
//       clients running concurrently against one registry.
//
// Run as `bench_serving_smoke --smoke`; the binary has no other mode.
// Throughput and latency of the same stack are measured by mcbench's
// serve-small and serve-large workloads.
#include <algorithm>
#include <atomic>
#include <cstdio>
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
#include "net/model_registry.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "nn/sgc.h"
#include "serve/concurrent_server.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

const char* const kTenants[] = {"alpha", "beta"};

/// An untrained SGC with deterministically initialized weights: forward
/// cost and bit patterns do not depend on training.
std::unique_ptr<GnnModel> MakeSgc(const Graph& graph, Rng& rng) {
  GnnConfig gc;
  return std::make_unique<Sgc>(graph.FeatureDim(), graph.num_classes(), gc,
                               rng);
}

/// Ordered digest of `batches` through the ComposeDeployment oracle over
/// `base` (a Graph or a CondensedGraph).
template <typename Base>
uint64_t PerRequestDigest(const Base& base, GnnModel& model,
                          const std::vector<HeldOutBatch>& batches,
                          bool graph_batch) {
  Rng rng(7);
  uint64_t h = kBitDigestSeed;
  for (const HeldOutBatch& batch : batches) {
    const Deployment dep = ComposeDeployment(base, batch, graph_batch);
    const Tensor logits = model.Predict(dep.operators, dep.features, rng);
    h = FoldBits(h, SliceRows(logits, dep.num_base,
                              dep.num_base + dep.batch_size));
  }
  return h;
}

struct SessionDigests {
  uint64_t ordered = kBitDigestSeed;
  uint64_t sum = 0;  // order-invariant: sum of per-request digests
};

/// The same stream through one persistent ServingSession over `base`.
template <typename Base>
SessionDigests SessionDigest(const Base& base, GnnModel& model,
                             const std::vector<HeldOutBatch>& batches,
                             bool graph_batch) {
  Rng rng(7);
  ServingSession session(base, model);
  SessionDigests d;
  for (const HeldOutBatch& batch : batches) {
    const Tensor& logits = session.Serve(batch, graph_batch, rng);
    d.ordered = FoldBits(d.ordered, logits);
    d.sum += BitDigest(logits);
  }
  return d;
}

/// Order-invariant digest sum of four closed-loop clients, each streaming
/// `batches` once through a ConcurrentServer of `replicas` sessions.
uint64_t ConcurrentDigestSum(const CondensedGraph& condensed,
                             GnnModel& model,
                             const std::vector<HeldOutBatch>& batches,
                             bool graph_batch, int replicas,
                             int micro_batch) {
  ConcurrentServer::Config cfg;
  cfg.num_replicas = replicas;
  cfg.queue_capacity = 32;
  cfg.micro_batch = micro_batch;
  ConcurrentServer server(SessionBase::Build(condensed), model, cfg);
  std::atomic<uint64_t> sum{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      Tensor out;
      uint64_t local = 0;
      for (const HeldOutBatch& batch : batches) {
        const Status st = server.ServeSync(batch, graph_batch, &out);
        MCOND_CHECK(st.ok()) << st.ToString();
        local += BitDigest(out);
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : clients) t.join();
  return sum.load(std::memory_order_relaxed);
}

/// Ordered digest of one tenant's stream served in-process through its own
/// ConcurrentServer (the reference side of the loopback gate).
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

/// Solo and concurrent serving of `alpha` with `model`, and of the
/// original training graph.
void PrintSessionDigests(const Graph& train, const CondensedGraph& alpha,
                         GnnModel& model,
                         const std::vector<HeldOutBatch>& batches) {
  for (const bool graph_batch : {true, false}) {
    const std::string tag = graph_batch ? "graph" : "node";
    PrintDigest(tag, "per_request",
                PerRequestDigest(alpha, model, batches, graph_batch));
    const SessionDigests condensed =
        SessionDigest(alpha, model, batches, graph_batch);
    PrintDigest(tag, "session", condensed.ordered);
    // Original-graph sessions share the patching machinery but skip the
    // aM conversion, so the gate covers both constructors.
    PrintDigest("orig_" + tag, "per_request",
                PerRequestDigest(train, model, batches, graph_batch));
    PrintDigest("orig_" + tag, "session",
                SessionDigest(train, model, batches, graph_batch).ordered);
    // Four clients each stream the batch list once, so the sum must be
    // four times the solo sum, at K=1 and at an oversubscribed K=8.
    const std::string concurrent = "concurrent_" + tag;
    PrintDigest(concurrent, "expected", condensed.sum * 4);
    PrintDigest(concurrent, "k1",
                ConcurrentDigestSum(alpha, model, batches, graph_batch,
                                    /*replicas=*/1, /*micro_batch=*/1));
    PrintDigest(concurrent, "k8",
                ConcurrentDigestSum(alpha, model, batches, graph_batch,
                                    /*replicas=*/8, /*micro_batch=*/4));
  }
}

/// Both artifacts as registry tenants, in-process against loopback, at
/// replica counts K=1 and K=8.
void PrintNetDigests(const CondensedGraph (&artifacts)[2],
                     const std::vector<HeldOutBatch>& batches) {
  const auto factory = [](const CondensedGraph& cg)
      -> StatusOr<std::unique_ptr<GnnModel>> {
    Rng rng(18);
    return MakeSgc(cg.graph, rng);
  };
  for (const int k : {1, 8}) {
    net::ModelRegistry registry(factory);
    net::TenantConfig cfg;
    cfg.num_replicas = k;
    cfg.micro_batch = k == 1 ? 1 : 4;
    for (int t = 0; t < 2; ++t) {
      const Status st = registry.AddTenant(kTenants[t], artifacts[t], cfg);
      MCOND_CHECK(st.ok()) << st.ToString();
    }
    net::NetServer server(registry, net::NetServerOptions());
    const Status st = server.Start();  // ephemeral loopback port
    MCOND_CHECK(st.ok()) << st.ToString();
    for (const bool graph_batch : {true, false}) {
      uint64_t inproc[2];
      uint64_t net[2];
      for (int t = 0; t < 2; ++t) {
        inproc[t] =
            InprocDigest(registry.Find(kTenants[t]), batches, graph_batch);
      }
      std::vector<std::thread> clients;
      for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&, t] {
          net[t] =
              NetDigest(server.port(), kTenants[t], batches, graph_batch);
        });
      }
      for (std::thread& c : clients) c.join();
      for (int t = 0; t < 2; ++t) {
        const std::string group = "k" + std::to_string(k) + "_" +
                                  kTenants[t] + "_" +
                                  (graph_batch ? "graph" : "node");
        PrintDigest(group, "inproc", inproc[t]);
        PrintDigest(group, "net", net[t]);
      }
    }
    server.Stop();
  }
}

int RunSmoke() {
  std::printf("threads %d\n", ThreadPool::Global().NumThreads());
  const InductiveDataset data = MakeDatasetByName("tiny-sim", 17);
  const Graph& train = data.train_graph;
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data.test, 8);
  // Two random-coreset artifacts: cheap to build, and serving cost and bits
  // depend on the artifact's shape, not on how it was condensed. alpha's
  // Rng(18) stream continues into the model of the solo and concurrent
  // rows; each tenant's model is drawn from a fresh Rng(18).
  const int64_t n_select =
      std::max<int64_t>(2 * train.num_classes(), train.NumNodes() / 20);
  const auto coreset = [&](Rng& rng) {
    return BuildCoresetGraph(
        train, SelectCoreset(CoresetMethod::kRandom, train, train.features(),
                             n_select, rng));
  };
  Rng alpha_rng(18);
  Rng beta_rng(19);
  const CondensedGraph artifacts[2] = {coreset(alpha_rng), coreset(beta_rng)};
  const std::unique_ptr<GnnModel> model = MakeSgc(train, alpha_rng);
  PrintSessionDigests(train, artifacts[0], *model, batches);
  PrintNetDigests(artifacts, batches);
  return 0;
}

}  // namespace
}  // namespace mcond

int main() { return mcond::RunSmoke(); }
