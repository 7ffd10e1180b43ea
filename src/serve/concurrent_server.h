#ifndef MCOND_SERVE_CONCURRENT_SERVER_H_
#define MCOND_SERVE_CONCURRENT_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/status.h"
#include "core/tensor.h"
#include "graph/inductive.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "serve/serving_session.h"
#include "serve/session_base.h"

namespace mcond {

/// Lifecycle timestamps of one served request, all on the shared
/// obs::MonotonicMicros clock. Stamped by the server: enqueue at admission
/// (on the submitting thread), dequeue when a worker drains the request
/// out of the queue, done when its logits have been copied into the
/// caller's output tensor. By construction
/// `queue_wait_us() + service_us() == latency_us()` exactly.
struct ServeTiming {
  uint64_t enqueue_us = 0;
  uint64_t dequeue_us = 0;
  uint64_t done_us = 0;

  uint64_t queue_wait_us() const { return dequeue_us - enqueue_us; }
  uint64_t service_us() const { return done_us - dequeue_us; }
  uint64_t latency_us() const { return done_us - enqueue_us; }
};

/// K ServingSession replicas over one shared SessionBase: the immutable
/// build-time caches of the model's operator (base structure, degree
/// accumulators, normalized base block, CSC patch index) are paid once,
/// and only the per-replica workspaces/arenas scale with K. The replicas
/// share one GnnModel — Predict is read-only for every bundled
/// architecture, so concurrent forward passes from distinct threads are
/// safe. The base must be built for `model.operator_kind()` (checked).
class ReplicaPool {
 public:
  ReplicaPool(std::shared_ptr<const SessionBase> base, GnnModel& model,
              int num_replicas);

  int size() const { return static_cast<int>(replicas_.size()); }
  ServingSession& replica(int i) { return *replicas_[static_cast<size_t>(i)]; }
  const std::shared_ptr<const SessionBase>& session_base() const {
    return base_;
  }

  /// Bytes of the pool: the shared SessionBase counted ONCE plus every
  /// replica's own workspace (ServingSession::workspace_bytes()). Grows
  /// sublinearly in K versus K independent sessions, which would each
  /// rebuild the base caches.
  int64_t memory_bytes() const;

 private:
  std::shared_ptr<const SessionBase> base_;
  std::vector<std::unique_ptr<ServingSession>> replicas_;
};

/// Concurrent serving engine: K session replicas behind a bounded MPMC
/// request queue.
///
/// Architecture
///  - A ReplicaPool of `num_replicas` sessions over one shared SessionBase.
///  - A bounded FIFO queue of `queue_capacity` pending requests with
///    explicit backpressure: when full, Submit either blocks until space
///    frees up (`block_when_full`, the default) or returns
///    ResourceExhausted immediately so callers can shed load.
///  - One worker thread per replica. Each worker pins its replica (warm
///    buffers, no cross-thread handoff of scratch state) and runs its
///    kernels inline at width 1 via ScopedInlineParallelRegion — K workers
///    would otherwise serialize on the global pool's dispatch lock and gain
///    nothing; width-1 execution is bit-identical by the determinism
///    contract (disjoint chunks, fixed intra-chunk order).
///  - Micro-batching: a worker drains up to `micro_batch` queued requests
///    in one lock acquisition and serves them back-to-back on its warm
///    replica. Requests are NOT merged into one composed adjacency —
///    attaching extra nodes changes base-row degrees, hence normalizers,
///    hence logits, which would break exactness (see
///    docs/performance.md). Coalescing only amortizes queue synchronization
///    while every request keeps its solo math.
///
/// Determinism: each request's logits are bit-identical to a solo
/// ServingSession::Serve of the same batch, regardless of replica count,
/// queue order, or micro-batch size. Tests enforce memcmp equality.
///
/// Allocation: the caller owns the output tensor; a worker resizes it only
/// on shape change and memcpys into it otherwise, so steady-state serving
/// with reused outputs performs zero tensor-heap allocations end to end.
/// The queue is a ring of `queue_capacity` request slots allocated at
/// construction, so Submit makes no heap allocation when its callback fits
/// std::function's inline buffer (16 bytes in libstdc++: capture one
/// pointer). The remaining per-request heap traffic is the autograd tape
/// nodes inside Predict.
///
/// Lifetime: the batch and output behind a Submit must stay alive, and the
/// batch unmodified, until its callback fires; base graph and model must
/// outlive the server. Shutdown (or destruction) stops admissions, drains
/// the queue — firing every admitted request's callback — and joins the
/// workers, so a caller that submits many requests can wait for all of
/// them with Shutdown alone.
///
/// Observability (`mcond.server.*`): `requests` / `rejected` /
/// `micro_batches` counters, `queue_depth` / `inflight` gauges, the
/// `latency_us` enqueue-to-reply histogram and its exact two-stage
/// breakdown `queue_wait_us` (enqueue → worker drain) + `service_us`
/// (drain → logits copied out), plus one `worker<i>_busy_ratio` gauge per
/// worker (fraction of its lifetime spent serving). When tracing is
/// enabled, every request carries a trace flow: the `server.submit` span
/// on the client thread starts flow `id`, a `server.queued` async pair
/// renders the queue residency, and the worker's `server.request` span
/// (with the nested `serve.session.*` stage spans) terminates the flow —
/// one request reads as one connected chain across threads in Perfetto,
/// with coalesced drains grouped under a `server.micro_batch` span that
/// multiple request flows fan into. With tracing disabled all of this
/// costs the usual single relaxed load per span plus three clock reads
/// per request (the timing stamps feed the histograms unconditionally).
class ConcurrentServer {
 public:
  struct Config {
    int num_replicas = 1;
    int queue_capacity = 64;
    /// Max requests one worker drains per queue pass (1 = no coalescing).
    int micro_batch = 1;
    /// Full queue: true → Submit blocks; false → ResourceExhausted.
    bool block_when_full = true;
    /// Test hook: workers start idle until Resume(), so tests can fill the
    /// queue deterministically and observe backpressure.
    bool start_paused = false;
  };

  ConcurrentServer(std::shared_ptr<const SessionBase> base, GnnModel& model,
                   const Config& config);
  ~ConcurrentServer();

  ConcurrentServer(const ConcurrentServer&) = delete;
  ConcurrentServer& operator=(const ConcurrentServer&) = delete;

  /// Completion hook for Submit: invoked exactly once on the worker thread,
  /// after `*out` holds the logits, with the request's timing stamps. An
  /// admitted request always completes with logits, so it carries no
  /// status. Keep it cheap — it runs inside the worker's serve loop (and
  /// inside its ScopedInlineParallelRegion), so a slow callback stalls that
  /// replica. After it returns the worker touches neither the batch, the
  /// output nor anything the callback captured.
  using ServeCallback = std::function<void(const ServeTiming&)>;

  /// Enqueues one request. Validates up front (InvalidArgument for a null
  /// output, an empty callback or a shape mismatch — workers never abort on
  /// caller mistakes); applies the backpressure policy when the queue is
  /// full (ResourceExhausted when not blocking); Unavailable after
  /// Shutdown. Ok means admitted: `on_done` fires exactly once, even across
  /// Shutdown. A synchronous failure is returned here and `on_done` never
  /// fires — one completion signal per request, never two.
  Status Submit(const HeldOutBatch& batch, bool graph_batch, Tensor* out,
                ServeCallback on_done);

  /// Submit, then block until the callback fires.
  Status ServeSync(const HeldOutBatch& batch, bool graph_batch, Tensor* out);

  /// Releases workers paused by `start_paused`. No-op otherwise.
  void Resume();

  /// Stops admitting, unblocks rejected submitters, drains every queued
  /// request, and joins the workers. Idempotent; implied by destruction.
  void Shutdown();

  ReplicaPool& pool() { return pool_; }
  const Config& config() const { return config_; }

 private:
  /// One queued request, held by value. `timing` and the trace `flow_id`
  /// (0 when tracing was off at submit time) carry the request across the
  /// thread boundary, so the worker can close the flow the submitter opened.
  struct Request {
    const HeldOutBatch* batch = nullptr;
    bool graph_batch = false;
    Tensor* out = nullptr;
    ServeTiming timing;
    uint64_t flow_id = 0;
    ServeCallback on_done;
  };

  void WorkerLoop(int worker_index);

  Config config_;
  ReplicaPool pool_;

  std::mutex mu_;
  std::condition_variable queue_cv_;  // workers: requests or shutdown
  std::condition_variable space_cv_;  // blocked submitters: space or shutdown
  // FIFO ring of queue_capacity slots: queue_size_ requests from queue_head_.
  std::vector<Request> queue_;
  size_t queue_head_ = 0;
  size_t queue_size_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  bool paused_ = false;

  std::vector<std::thread> workers_;

  // Cached metric handles (registry lookup takes a mutex).
  obs::Counter& requests_;
  obs::Counter& rejected_;
  obs::Counter& micro_batches_;
  obs::Gauge& queue_depth_;
  obs::Gauge& inflight_;
  obs::Histogram& latency_us_;
  obs::Histogram& queue_wait_us_;
  obs::Histogram& service_us_;
};

}  // namespace mcond

#endif  // MCOND_SERVE_CONCURRENT_SERVER_H_
