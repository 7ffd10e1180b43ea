// Tests for the concurrent serving engine (src/serve/concurrent_server.*):
// per-request logits bit-identical to a solo ServingSession at every
// replica count / micro-batch setting, the completion-callback contract,
// explicit backpressure in both block and reject modes, a degree-0 base
// row under concurrency, the shared-base memory accounting of
// ReplicaPool, and the allocation-free steady state (no tensor-heap
// allocation, no heap allocation in Submit). Also built under the tsan
// preset, which checks the replica/queue synchronization itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
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

// A counting global operator new for this binary. Each thread counts its
// own calls, so a test can bracket one call on the submitting thread while
// workers allocate freely. The array and nothrow forms route through this
// one; the aligned forms keep the library's own aligned_alloc/free pair.
namespace {
thread_local int64_t t_operator_new_calls = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++t_operator_new_calls;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
// Out of line, so gcc does not pair an inlined free() with operator new
// (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcond {
namespace {

void ExpectBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.size()) * sizeof(float)),
            0)
      << "logits differ at the bit level";
}

/// Submits a node batch whose callback stores the request's ServeTiming in
/// `*slot`. The callback captures one pointer, so it fits std::function's
/// inline buffer. Callers wait for every admitted request with Shutdown(),
/// which drains the queue and joins the workers.
Status SubmitRecording(ConcurrentServer& server, const HeldOutBatch& batch,
                       Tensor* out, ServeTiming* slot) {
  return server.Submit(batch, /*graph_batch=*/false, out,
                       [slot](const ServeTiming& t) { *slot = t; });
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

  /// The shared base of the fixture's SGC deployment.
  static std::shared_ptr<const SessionBase> BuildBase() {
    return SessionBase::Build(*condensed_, model_->operator_kind());
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
  std::shared_ptr<const SessionBase> base = BuildBase();
  for (const int replicas : {1, 2, 8}) {
    for (const int micro_batch : {1, 4}) {
      ConcurrentServer::Config cfg;
      cfg.num_replicas = replicas;
      cfg.queue_capacity = 16;
      cfg.micro_batch = micro_batch;
      ConcurrentServer server(base, *model_, cfg);
      // Submit the whole stream at once — arbitrary queue order, arbitrary
      // replica assignment, possible coalescing — then drain it all.
      std::vector<Tensor> outs(batches_->size());
      std::vector<ServeTiming> timings(batches_->size());
      for (size_t i = 0; i < batches_->size(); ++i) {
        const Status st =
            SubmitRecording(server, (*batches_)[i], &outs[i], &timings[i]);
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      server.Shutdown();
      for (size_t i = 0; i < outs.size(); ++i) {
        ExpectBitEqual((*solo_)[i], outs[i]);
      }
    }
  }
}

TEST_F(ConcurrentServerTest, RejectsWhenQueueFullAndNotBlocking) {
  std::shared_ptr<const SessionBase> base = BuildBase();
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 1;
  cfg.queue_capacity = 2;
  cfg.block_when_full = false;
  cfg.start_paused = true;  // workers idle: the queue fills deterministically
  ConcurrentServer server(base, *model_, cfg);
  const int64_t rejected_before =
      obs::GetCounter("mcond.server.rejected").Value();

  Tensor out_a, out_b, out_c;
  ServeTiming ta, tb, tc;
  ASSERT_TRUE(SubmitRecording(server, (*batches_)[0], &out_a, &ta).ok());
  ASSERT_TRUE(SubmitRecording(server, (*batches_)[1], &out_b, &tb).ok());
  EXPECT_EQ(SubmitRecording(server, (*batches_)[0], &out_c, &tc).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GetCounter("mcond.server.rejected").Value(),
            rejected_before + 1);

  // The admitted requests still complete once drained.
  server.Resume();
  server.Shutdown();
  ExpectBitEqual((*solo_)[0], out_a);
  ExpectBitEqual((*solo_)[1], out_b);
}

TEST_F(ConcurrentServerTest, BlocksWhenQueueFullUntilSpaceFrees) {
  std::shared_ptr<const SessionBase> base = BuildBase();
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 1;
  cfg.queue_capacity = 1;
  cfg.block_when_full = true;
  cfg.start_paused = true;
  ConcurrentServer server(base, *model_, cfg);

  Tensor out_a, out_b;
  ServeTiming ta, tb;
  ASSERT_TRUE(SubmitRecording(server, (*batches_)[0], &out_a, &ta).ok());
  // Second submit must block: the queue is full and nothing drains while
  // the server is paused.
  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    const Status st = SubmitRecording(server, (*batches_)[1], &out_b, &tb);
    admitted.store(true, std::memory_order_relaxed);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load(std::memory_order_relaxed))
      << "Submit returned although the paused server could not drain";
  server.Resume();  // worker drains → space frees → blocked submit admits
  submitter.join();
  EXPECT_TRUE(admitted.load(std::memory_order_relaxed));
  server.Shutdown();
  ExpectBitEqual((*solo_)[0], out_a);
  ExpectBitEqual((*solo_)[1], out_b);
}

TEST_F(ConcurrentServerTest, CallbackFiresExactlyOncePerAdmittedRequest) {
  // Paused workers: every admitted request is still queued at Shutdown,
  // which must drain it and fire its callback exactly once. A rejected,
  // invalid or post-Shutdown submit returns its code and never calls back.
  std::shared_ptr<const SessionBase> base = BuildBase();
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  cfg.queue_capacity = 3;
  cfg.block_when_full = false;
  cfg.start_paused = true;
  ConcurrentServer server(base, *model_, cfg);
  constexpr int kAdmitted = 3;
  std::vector<Tensor> outs(kAdmitted + 1);
  std::vector<int> fired(kAdmitted + 4, 0);  // one counter per submit
  auto submit = [&](const HeldOutBatch& batch, Tensor* out, int* counter) {
    return server.Submit(batch, /*graph_batch=*/false, out,
                         [counter](const ServeTiming&) { ++*counter; });
  };
  for (int i = 0; i < kAdmitted; ++i) {
    ASSERT_TRUE(submit((*batches_)[i], &outs[i], &fired[i]).ok());
  }
  Tensor* spare = &outs[kAdmitted];
  EXPECT_EQ(submit((*batches_)[0], spare, &fired[3]).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(submit((*batches_)[0], nullptr, &fired[4]).code(),
            StatusCode::kInvalidArgument);
  HeldOutBatch bad = (*batches_)[0];
  bad.features = Tensor::Uninitialized(bad.features.rows(),
                                       bad.features.cols() + 1);
  EXPECT_EQ(submit(bad, spare, &fired[5]).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Submit((*batches_)[0], /*graph_batch=*/false, spare, {})
                .code(),
            StatusCode::kInvalidArgument);

  server.Shutdown();
  EXPECT_EQ(submit((*batches_)[0], spare, &fired[6]).code(),
            StatusCode::kUnavailable);
  for (int i = 0; i < kAdmitted; ++i) {
    EXPECT_EQ(fired[i], 1) << "admitted request " << i;
    ExpectBitEqual((*solo_)[i], outs[i]);
  }
  for (size_t i = kAdmitted; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], 0) << "refused submit " << i << " called back";
  }
}

/// A base graph whose Ã row 0 sums to exactly 0 (1 - 2 + self-loop 1),
/// and a two-node batch linking to it.
struct Degree0Case {
  static constexpr int64_t kBase = 3, kDim = 4, kClasses = 2;
  Graph graph;
  HeldOutBatch batch;

  Degree0Case() {
    std::vector<Triplet> t = {{0, 1, 1.0f}, {0, 2, -2.0f}, {1, 2, 1.0f},
                              {2, 1, 1.0f}};
    Rng grng(3);
    graph = Graph(CsrMatrix::FromTriplets(kBase, kBase, std::move(t)),
                  grng.NormalTensor(kBase, kDim), {0, 1, 0}, kClasses);
    batch.features = grng.NormalTensor(2, kDim);
    batch.links = CsrMatrix::FromTriplets(
        2, kBase, {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 2, 1.0f}});
    batch.inter = CsrMatrix::FromTriplets(2, 2, {{0, 1, 1.0f}, {1, 0, 1.0f}});
    batch.labels = {0, 1};
  }

  static std::unique_ptr<GnnModel> MakeModel(GnnArch arch) {
    Rng mrng(7);
    GnnConfig gc;
    return MakeGnn(arch, kDim, kClasses, gc, mrng);
  }
};

TEST_F(ConcurrentServerTest, Degree0BaseServedConcurrently) {
  // Ã row 0 sums to exactly 0 (1 - 2 + self-loop 1): its entries stay,
  // scaled by 0, and every serve, concurrent included, patches it like any
  // other row.
  const Degree0Case c;
  const Graph& g = c.graph;
  const HeldOutBatch& batch = c.batch;
  std::unique_ptr<GnnModel> model = Degree0Case::MakeModel(GnnArch::kSgc);

  ServingSession solo(g, *model);
  Rng srng(9);
  const Tensor expect = solo.Serve(batch, /*graph_batch=*/false, srng);

  std::shared_ptr<const SessionBase> base =
      SessionBase::Build(g, model->operator_kind());
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  ConcurrentServer server(base, *model, cfg);
  std::vector<Tensor> outs(6);
  std::vector<ServeTiming> timings(outs.size());
  for (size_t i = 0; i < outs.size(); ++i) {
    ASSERT_TRUE(SubmitRecording(server, batch, &outs[i], &timings[i]).ok());
  }
  server.Shutdown();
  for (const Tensor& out : outs) ExpectBitEqual(expect, out);
}

TEST_F(ConcurrentServerTest, Degree0BaseServesEveryArchitectureExactly) {
  // The same base under every architecture, so under all three operators:
  // each base caches row 0 like any other row, and each session equals the
  // ComposeDeployment oracle bit for bit.
  const Degree0Case c;
  for (const GnnArch arch : {GnnArch::kSgc, GnnArch::kGcn,
                             GnnArch::kGraphSage, GnnArch::kAppnp,
                             GnnArch::kCheby}) {
    SCOPED_TRACE(GnnArchName(arch));
    std::unique_ptr<GnnModel> model = Degree0Case::MakeModel(arch);
    const std::shared_ptr<const SessionBase> base =
        SessionBase::Build(c.graph, model->operator_kind());
    // Row 0 keeps its entries, so the cached normalized block has the
    // structure's layout (gcn_norm's block is the Graph's own).
    EXPECT_EQ(base->normalized_block().row_ptr(),
              base->structure().row_ptr());
    for (const bool graph_batch : {true, false}) {
      const Deployment dep = ComposeDeployment(c.graph, c.batch, graph_batch);
      Rng orng(9);
      const Tensor expect =
          SliceRows(model->Predict(dep.operators, dep.features, orng),
                    dep.num_base, dep.num_base + dep.batch_size);
      ServingSession session(base, *model);
      Rng srng(9);
      ExpectBitEqual(expect, session.Serve(c.batch, graph_batch, srng));
    }
  }
}

TEST_F(ConcurrentServerTest, PoolRejectsBaseOfAnotherOperator) {
  // The fixture's model is SGC (gcn_norm); a base built for either other
  // operator must not get replicas.
  for (const OperatorKind kind :
       {OperatorKind::kRowNorm, OperatorKind::kSymNoLoop}) {
    const std::shared_ptr<const SessionBase> base =
        SessionBase::Build(*condensed_, kind);
    EXPECT_DEATH(ReplicaPool(base, *model_, 2), "another operator");
  }
}

TEST_F(ConcurrentServerTest, PoolOfFourSharesBaseAndGrowsSublinearly) {
  std::shared_ptr<const SessionBase> base = BuildBase();
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

TEST_F(ConcurrentServerTest, SteadyStateSubmitAllocatesNothing) {
  std::shared_ptr<const SessionBase> base = BuildBase();
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  cfg.queue_capacity = 2;  // the measured submits wrap the ring and block
  ConcurrentServer server(base, *model_, cfg);
  // Warm every replica's workspaces directly (the workers are idle while no
  // requests are queued, so the replicas are safe to touch), then warm the
  // caller-owned output tensors, and this thread's path through Submit,
  // with one synchronous serve each.
  Rng rng(9);
  for (int r = 0; r < server.pool().size(); ++r) {
    server.pool().replica(r).Serve((*batches_)[0], /*graph_batch=*/false,
                                   rng);
    server.pool().replica(r).Serve((*batches_)[0], /*graph_batch=*/false,
                                   rng);
  }
  std::vector<Tensor> outs(8);
  for (Tensor& out : outs) {
    ASSERT_TRUE(
        server.ServeSync((*batches_)[0], /*graph_batch=*/false, &out).ok());
  }
  std::vector<ServeTiming> timings(outs.size());
  const int64_t warm = internal::TensorHeapAllocCount();
  int64_t submit_news = 0;
  for (size_t i = 0; i < outs.size(); ++i) {
    // The bracket includes building the std::function from the lambda.
    const int64_t before = t_operator_new_calls;
    const Status st =
        SubmitRecording(server, (*batches_)[0], &outs[i], &timings[i]);
    submit_news += t_operator_new_calls - before;
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  server.Shutdown();
  EXPECT_EQ(submit_news, 0)
      << "steady-state Submit allocated on the submitting thread";
  EXPECT_EQ(internal::TensorHeapAllocCount(), warm)
      << "steady-state concurrent serving must not allocate tensor memory";
  for (const Tensor& out : outs) ExpectBitEqual((*solo_)[0], out);
}

TEST_F(ConcurrentServerTest, TimingAttributionSumsExactlyToLatency) {
  std::shared_ptr<const SessionBase> base = BuildBase();
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
  std::vector<ServeTiming> timings(batches_->size());
  for (size_t i = 0; i < batches_->size(); ++i) {
    ASSERT_TRUE(
        SubmitRecording(server, (*batches_)[i], &outs[i], &timings[i]).ok());
  }
  server.Shutdown();
  // The timing each callback received:
  for (const ServeTiming& timing : timings) {
    // Stamps are ordered on the shared monotonic clock...
    EXPECT_GT(timing.enqueue_us, 0u);
    EXPECT_LE(timing.enqueue_us, timing.dequeue_us);
    EXPECT_LE(timing.dequeue_us, timing.done_us);
    // ...and the two stages partition the end-to-end latency exactly.
    EXPECT_EQ(timing.queue_wait_us() + timing.service_us(),
              timing.latency_us());
  }

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
  std::shared_ptr<const SessionBase> base = BuildBase();
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  cfg.micro_batch = 2;
  {
    ConcurrentServer server(base, *model_, cfg);
    std::vector<Tensor> outs(batches_->size());
    std::vector<ServeTiming> timings(batches_->size());
    for (size_t i = 0; i < batches_->size(); ++i) {
      ASSERT_TRUE(
          SubmitRecording(server, (*batches_)[i], &outs[i], &timings[i])
              .ok());
    }
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
  std::shared_ptr<const SessionBase> base = BuildBase();
  ConcurrentServer::Config cfg;
  cfg.num_replicas = 2;
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    int width = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      ThreadPool::Global().SetNumThreads(width);
      width = width % 4 + 1;
    }
  });
  for (int round = 0; round < 10; ++round) {
    // One server per round: its Shutdown is the round's barrier.
    ConcurrentServer server(base, *model_, cfg);
    std::vector<Tensor> outs(batches_->size());
    std::vector<ServeTiming> timings(batches_->size());
    for (size_t i = 0; i < batches_->size(); ++i) {
      EXPECT_TRUE(
          SubmitRecording(server, (*batches_)[i], &outs[i], &timings[i])
              .ok());
    }
    server.Shutdown();
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
