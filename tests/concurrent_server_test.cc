// Tests for the concurrent serving engine (src/serve/concurrent_server.*):
// per-request logits bit-identical to a solo ServingSession at every
// replica count / micro-batch setting, explicit backpressure in both
// block and reject modes, the degree-0 fallback under concurrency, the
// shared-base memory accounting of ReplicaPool, and the per-replica
// zero-tensor-heap-allocation steady state. Also built under the tsan
// preset, which checks the replica/queue synchronization itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "obs/trace.h"
#include "core/tensor_ops.h"
#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "eval/inference.h"
#include "serve/concurrent_server.h"
#include "serve/serving_session.h"

namespace mcond {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << "logits differ at the bit level";
}

class ConcurrentServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 41));
    const Graph& train = data_->train_graph;
    Rng rng(42);
    const std::vector<int64_t> selected =
        SelectCoreset(CoresetMethod::kRandom, train, train.features(),
                      /*num_select=*/24, rng);
    condensed_ = new CondensedGraph(BuildCoresetGraph(train, selected));
    model_ = MakeModel().release();
    batches_ = new std::vector<HeldOutBatch>(
        SplitIntoBatches(data_->test, 7));
    // The solo reference: one plain session, request stream served in
    // order. Everything concurrent must reproduce these bits exactly.
    solo_ = new std::vector<Tensor>();
    ServingSession solo(*condensed_, *model_);
    Rng srng(9);
    for (const HeldOutBatch& b : *batches_) {
      solo_->push_back(solo.Serve(b, /*graph_batch=*/false, srng));
    }
  }
  static void TearDownTestSuite() {
    delete solo_;
    delete batches_;
    delete model_;
    delete condensed_;
    delete data_;
  }

  static std::unique_ptr<GnnModel> MakeModel() {
    Rng rng(7);
    GnnConfig gc;
    const Graph& g = condensed_->graph;
    return MakeGnn(GnnArch::kSgc, g.FeatureDim(), g.num_classes(), gc, rng);
  }

  static InductiveDataset* data_;
  static CondensedGraph* condensed_;
  static GnnModel* model_;
  static std::vector<HeldOutBatch>* batches_;
  static std::vector<Tensor>* solo_;
};

InductiveDataset* ConcurrentServerTest::data_ = nullptr;
CondensedGraph* ConcurrentServerTest::condensed_ = nullptr;
GnnModel* ConcurrentServerTest::model_ = nullptr;
std::vector<HeldOutBatch>* ConcurrentServerTest::batches_ = nullptr;
std::vector<Tensor>* ConcurrentServerTest::solo_ = nullptr;

TEST_F(ConcurrentServerTest, BitIdenticalToSoloAcrossReplicasAndBatching) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  for (const int replicas : {1, 2, 8}) {
    for (const int micro_batch : {1, 4}) {
      ConcurrentServer::Config cfg;
      cfg.num_replicas = replicas;
      cfg.queue_capacity = 16;
      cfg.micro_batch = micro_batch;
      ConcurrentServer server(base, *model_, cfg);
      // Submit the whole stream at once — arbitrary queue order, arbitrary
      // replica assignment, possible coalescing — then wait for all.
      std::vector<Tensor> outs(batches_->size());
      std::vector<ServeTicket> tickets;
      for (size_t i = 0; i < batches_->size(); ++i) {
        StatusOr<ServeTicket> t =
            server.Submit((*batches_)[i], /*graph_batch=*/false, &outs[i]);
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        tickets.push_back(t.value());
      }
      for (ServeTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
      for (size_t i = 0; i < outs.size(); ++i) {
        ExpectBitEqual((*solo_)[i], outs[i]);
      }
      server.Shutdown();
      for (int r = 0; r < server.pool().size(); ++r) {
        EXPECT_EQ(server.pool().replica(r).fallback_serves(), 0);
      }
    }
  }
}

TEST_F(ConcurrentServerTest, RejectsWhenQueueFullAndNotBlocking) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 1;
  cfg.queue_capacity = 2;
  cfg.block_when_full = false;
  cfg.start_paused = true;  // workers idle: the queue fills deterministically
  ConcurrentServer server(base, *model_, cfg);
  const int64_t rejected_before =
      obs::GetCounter("mcond.server.rejected").Value();

  Tensor out_a, out_b, out_c;
  StatusOr<ServeTicket> a =
      server.Submit((*batches_)[0], /*graph_batch=*/false, &out_a);
  StatusOr<ServeTicket> b =
      server.Submit((*batches_)[1], /*graph_batch=*/false, &out_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  StatusOr<ServeTicket> c =
      server.Submit((*batches_)[0], /*graph_batch=*/false, &out_c);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GetCounter("mcond.server.rejected").Value(),
            rejected_before + 1);

  // The admitted requests still complete exactly once drained.
  server.Resume();
  ServeTicket ta = a.value(), tb = b.value();
  EXPECT_TRUE(ta.Wait().ok());
  EXPECT_TRUE(tb.Wait().ok());
  ExpectBitEqual((*solo_)[0], out_a);
  ExpectBitEqual((*solo_)[1], out_b);
}

TEST_F(ConcurrentServerTest, BlocksWhenQueueFullUntilSpaceFrees) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 1;
  cfg.queue_capacity = 1;
  cfg.block_when_full = true;
  cfg.start_paused = true;
  ConcurrentServer server(base, *model_, cfg);

  Tensor out_a, out_b;
  StatusOr<ServeTicket> a =
      server.Submit((*batches_)[0], /*graph_batch=*/false, &out_a);
  ASSERT_TRUE(a.ok());
  // Second submit must block: the queue is full and nothing drains while
  // the server is paused.
  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    StatusOr<ServeTicket> b =
        server.Submit((*batches_)[1], /*graph_batch=*/false, &out_b);
    admitted.store(true, std::memory_order_relaxed);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(b.value().Wait().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load(std::memory_order_relaxed))
      << "Submit returned although the paused server could not drain";
  server.Resume();  // worker drains → space frees → blocked submit admits
  submitter.join();
  EXPECT_TRUE(admitted.load(std::memory_order_relaxed));
  ServeTicket ta = a.value();
  EXPECT_TRUE(ta.Wait().ok());
  ExpectBitEqual((*solo_)[0], out_a);
  ExpectBitEqual((*solo_)[1], out_b);
}

TEST_F(ConcurrentServerTest, SubmitValidatesBeforeEnqueueAndAfterShutdown) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 1;
  ConcurrentServer server(base, *model_, cfg);
  Tensor out;
  EXPECT_EQ(server.Submit((*batches_)[0], /*graph_batch=*/false, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  HeldOutBatch bad = (*batches_)[0];
  bad.features = Tensor::Uninitialized(bad.features.rows(),
                                       bad.features.cols() + 1);
  EXPECT_EQ(server.Submit(bad, /*graph_batch=*/false, &out).status().code(),
            StatusCode::kInvalidArgument);
  server.Shutdown();
  EXPECT_EQ(server.Submit((*batches_)[0], /*graph_batch=*/false, &out)
                .status()
                .code(),
            StatusCode::kUnavailable);
}

TEST_F(ConcurrentServerTest, Degree0FallbackServedConcurrently) {
  // Ã row 0 sums to exactly 0 (1 - 2 + self-loop 1): RowNormalize drops its
  // entries at graph construction, so the base is fallback-only and every
  // serve — concurrent included — must take the exact full-recompose path.
  std::vector<Triplet> t = {{0, 1, 1.0f}, {0, 2, -2.0f}, {1, 2, 1.0f},
                            {2, 1, 1.0f}};
  const int64_t n_base = 3, dim = 4, classes = 2;
  Rng grng(3);
  Graph g(CsrMatrix::FromTriplets(n_base, n_base, std::move(t)),
          grng.NormalTensor(n_base, dim), {0, 1, 0}, classes);
  Rng mrng(7);
  GnnConfig gc;
  std::unique_ptr<GnnModel> model =
      MakeGnn(GnnArch::kSgc, dim, classes, gc, mrng);

  HeldOutBatch batch;
  batch.features = grng.NormalTensor(2, dim);
  batch.links = CsrMatrix::FromTriplets(
      2, n_base, {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 2, 1.0f}});
  batch.inter = CsrMatrix::FromTriplets(2, 2, {});
  batch.labels = {0, 1};

  ServingSession solo(g, *model);
  Rng srng(9);
  const Tensor expect = solo.Serve(batch, /*graph_batch=*/false, srng);
  EXPECT_GT(solo.fallback_serves(), 0);

  std::shared_ptr<const SessionBase> base = SessionBase::Build(g);
  EXPECT_TRUE(base->fallback_only);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  ConcurrentServer server(base, *model, cfg);
  std::vector<Tensor> outs(6);
  std::vector<ServeTicket> tickets;
  for (Tensor& out : outs) {
    StatusOr<ServeTicket> tk =
        server.Submit(batch, /*graph_batch=*/false, &out);
    ASSERT_TRUE(tk.ok());
    tickets.push_back(tk.value());
  }
  for (ServeTicket& tk : tickets) EXPECT_TRUE(tk.Wait().ok());
  for (const Tensor& out : outs) ExpectBitEqual(expect, out);
  server.Shutdown();
  int64_t fallbacks = 0;
  for (int r = 0; r < server.pool().size(); ++r) {
    fallbacks += server.pool().replica(r).fallback_serves();
  }
  EXPECT_EQ(fallbacks, 6);
}

TEST_F(ConcurrentServerTest, PoolOfFourSharesBaseAndGrowsSublinearly) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ReplicaPool pool(base, *model_, 4);
  Rng rng(9);
  for (int r = 0; r < pool.size(); ++r) {
    pool.replica(r).Serve((*batches_)[0], /*graph_batch=*/false, rng);
  }
  // The pool counts the shared base exactly once plus each replica's own
  // workspace...
  int64_t workspaces = 0;
  for (int r = 0; r < pool.size(); ++r) {
    workspaces += pool.replica(r).workspace_bytes();
    EXPECT_EQ(pool.replica(r).session_base().get(), base.get());
  }
  EXPECT_EQ(pool.memory_bytes(), base->memory_bytes() + workspaces);
  // ...so four pooled replicas cost well under four independent sessions,
  // each of which rebuilds the base caches privately.
  ServingSession solo(*condensed_, *model_);
  solo.Serve((*batches_)[0], /*graph_batch=*/false, rng);
  const int64_t solo_total =
      solo.session_base()->memory_bytes() + solo.workspace_bytes();
  EXPECT_LT(pool.memory_bytes(), 4 * solo_total);
  EXPECT_GT(base->memory_bytes(), 0);
}

TEST_F(ConcurrentServerTest, SteadyStateServingIsZeroTensorHeapAlloc) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  ConcurrentServer server(base, *model_, cfg);
  // Warm every replica's workspaces directly (the workers are idle while no
  // requests are queued, so the replicas are safe to touch), then warm the
  // caller-owned output tensors through one served round.
  Rng rng(9);
  for (int r = 0; r < server.pool().size(); ++r) {
    server.pool().replica(r).Serve((*batches_)[0], /*graph_batch=*/false,
                                   rng);
    server.pool().replica(r).Serve((*batches_)[0], /*graph_batch=*/false,
                                   rng);
  }
  std::vector<Tensor> outs(4);
  for (Tensor& out : outs) {
    ASSERT_TRUE(
        server.ServeSync((*batches_)[0], /*graph_batch=*/false, &out).ok());
  }
  const int64_t warm = internal::TensorHeapAllocCount();
  for (int round = 0; round < 3; ++round) {
    std::vector<ServeTicket> tickets;
    for (Tensor& out : outs) {
      StatusOr<ServeTicket> t =
          server.Submit((*batches_)[0], /*graph_batch=*/false, &out);
      ASSERT_TRUE(t.ok());
      tickets.push_back(t.value());
    }
    for (ServeTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
    ExpectBitEqual((*solo_)[0], outs[0]);
  }
  EXPECT_EQ(internal::TensorHeapAllocCount(), warm)
      << "steady-state concurrent serving must not allocate tensor memory";
}

TEST_F(ConcurrentServerTest, TimingAttributionSumsExactlyToLatency) {
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  cfg.micro_batch = 4;
  // Histogram sums before, so the per-request identity can also be checked
  // in aggregate across everything this server records.
  obs::Histogram& latency = obs::GetHistogram("mcond.server.latency_us");
  obs::Histogram& queue_wait = obs::GetHistogram("mcond.server.queue_wait_us");
  obs::Histogram& service = obs::GetHistogram("mcond.server.service_us");
  const int64_t latency_sum0 = latency.Sum();
  const int64_t queue_wait_sum0 = queue_wait.Sum();
  const int64_t service_sum0 = service.Sum();
  const int64_t count0 = latency.Count();

  ConcurrentServer server(base, *model_, cfg);
  std::vector<Tensor> outs(batches_->size());
  std::vector<ServeTicket> tickets;
  for (size_t i = 0; i < batches_->size(); ++i) {
    StatusOr<ServeTicket> t =
        server.Submit((*batches_)[i], /*graph_batch=*/false, &outs[i]);
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  for (ServeTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());
  for (ServeTicket& t : tickets) {
    const ServeTiming timing = t.timing();
    // Stamps are ordered on the shared monotonic clock...
    EXPECT_LE(timing.enqueue_us, timing.dequeue_us);
    EXPECT_LE(timing.dequeue_us, timing.done_us);
    // ...and the two stages partition the end-to-end latency exactly.
    EXPECT_EQ(timing.queue_wait_us() + timing.service_us(),
              timing.latency_us());
  }
  server.Shutdown();

  EXPECT_EQ(latency.Count() - count0,
            static_cast<int64_t>(batches_->size()));
  EXPECT_EQ(queue_wait.Count(), latency.Count());
  EXPECT_EQ(service.Count(), latency.Count());
  // The same identity holds for the recorded histograms in aggregate.
  EXPECT_EQ((queue_wait.Sum() - queue_wait_sum0) +
                (service.Sum() - service_sum0),
            latency.Sum() - latency_sum0);

  // Each worker that served something published a utilization gauge.
  double busy_sum = 0.0;
  for (int r = 0; r < cfg.num_replicas; ++r) {
    const std::string name =
        "mcond.server.worker" + std::to_string(r) + "_busy_ratio";
    // metric-name: mcond.server.worker<i>_busy_ratio
    busy_sum += obs::GetGauge(name).Value();
  }
  EXPECT_GT(busy_sum, 0.0);
}

TEST_F(ConcurrentServerTest, TracedRunProducesConnectedFlows) {
  obs::ClearTrace();
  obs::EnableTracing(true);
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  cfg.micro_batch = 2;
  {
    ConcurrentServer server(base, *model_, cfg);
    std::vector<Tensor> outs(batches_->size());
    std::vector<ServeTicket> tickets;
    for (size_t i = 0; i < batches_->size(); ++i) {
      StatusOr<ServeTicket> t =
          server.Submit((*batches_)[i], /*graph_batch=*/false, &outs[i]);
      ASSERT_TRUE(t.ok());
      tickets.push_back(t.value());
    }
    for (ServeTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());
    server.Shutdown();
  }
  obs::EnableTracing(false);

  // Every request must appear as one connected chain: a server.submit span
  // starting its flow on the submitting thread, a queued async pair, and a
  // server.request span ending the flow on a worker thread.
  struct FlowParts {
    int submit_start = 0;
    int request_end = 0;
    int async_begin = 0;
    int async_end = 0;
    uint32_t submit_tid = 0;
    uint32_t request_tid = 0;
  };
  std::map<uint64_t, FlowParts> flows;
  for (const obs::TraceEvent& e : obs::TraceSnapshot()) {
    if (e.flow_id == 0) continue;
    FlowParts& parts = flows[e.flow_id];
    if (e.kind == obs::TraceEvent::Kind::kAsyncBegin) {
      ++parts.async_begin;
    } else if (e.kind == obs::TraceEvent::Kind::kAsyncEnd) {
      ++parts.async_end;
    } else if (e.flow == obs::FlowPhase::kStart) {
      ++parts.submit_start;
      parts.submit_tid = e.tid;
      EXPECT_STREQ(e.name, "server.submit");
    } else if (e.flow == obs::FlowPhase::kEnd) {
      ++parts.request_end;
      parts.request_tid = e.tid;
      EXPECT_STREQ(e.name, "server.request");
    }
  }
  ASSERT_EQ(flows.size(), batches_->size());
  bool crossed_threads = false;
  for (const auto& [flow_id, parts] : flows) {
    EXPECT_EQ(parts.submit_start, 1) << "flow " << flow_id;
    EXPECT_EQ(parts.request_end, 1) << "flow " << flow_id;
    EXPECT_EQ(parts.async_begin, 1) << "flow " << flow_id;
    EXPECT_EQ(parts.async_end, 1) << "flow " << flow_id;
    if (parts.submit_tid != parts.request_tid) crossed_threads = true;
  }
  EXPECT_TRUE(crossed_threads)
      << "no request flow crossed from the submitter to a worker thread";
  obs::ClearTrace();
}

TEST_F(ConcurrentServerTest, SetNumThreadsDuringServingStaysExact) {
  // The ThreadPool resize contract: resizing from another thread while the
  // server runs is safe (replica kernels run inline and never touch the
  // pool; outside dispatches serialize behind the resize).
  std::shared_ptr<const SessionBase> base = SessionBase::Build(*condensed_);
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  ConcurrentServer server(base, *model_, cfg);
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    int width = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ThreadPool::Global().SetNumThreads(width);
      width = width % 4 + 1;
    }
  });
  for (int round = 0; round < 10; ++round) {
    std::vector<Tensor> outs(batches_->size());
    std::vector<ServeTicket> tickets;
    for (size_t i = 0; i < batches_->size(); ++i) {
      StatusOr<ServeTicket> t =
          server.Submit((*batches_)[i], /*graph_batch=*/false, &outs[i]);
      ASSERT_TRUE(t.ok());
      tickets.push_back(t.value());
    }
    for (ServeTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
    for (size_t i = 0; i < outs.size(); ++i) {
      ExpectBitEqual((*solo_)[i], outs[i]);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  ThreadPool::Global().SetNumThreads(ThreadPool::DefaultNumThreads());
}

}  // namespace
}  // namespace mcond
