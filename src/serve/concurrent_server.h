#ifndef MCOND_SERVE_CONCURRENT_SERVER_H_
#define MCOND_SERVE_CONCURRENT_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
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

struct ServeRequest;  // internal; defined in concurrent_server.cc

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

/// Handle for one submitted request. Wait() blocks until a worker has
/// served the request and copied its logits into the caller's output
/// tensor, then returns the final status. Copyable; default-constructed
/// tickets are empty and must not be waited on.
class ServeTicket {
 public:
  ServeTicket() = default;
  /// Blocks until the request completes. Idempotent after completion.
  Status Wait();

  /// The request's lifecycle timestamps. Only meaningful after Wait()
  /// returned (dequeue/done are 0 until the worker stamps them).
  ServeTiming timing() const;

 private:
  friend class ConcurrentServer;
  explicit ServeTicket(std::shared_ptr<ServeRequest> req)
      : req_(std::move(req)) {}
  std::shared_ptr<ServeRequest> req_;
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
///
/// Lifetime: the batch behind a Submit must stay alive and unmodified
/// until its ticket's Wait returns; base graph and model must outlive the
/// server. Shutdown (or destruction) stops admissions, drains the queue,
/// and joins the workers.
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
  /// after `*out` holds the logits and the ticket has been signaled. Keep
  /// it cheap — it runs inside the worker's serve loop (and inside its
  /// ScopedInlineParallelRegion), so a slow callback stalls that replica.
  /// The NetServer uses this to hand finished responses back to its IO
  /// thread without parking a thread per in-flight request.
  using ServeCallback = std::function<void(const ServeTiming&)>;

  /// Enqueues one request. Validates shapes up front (InvalidArgument —
  /// workers never abort on caller mistakes); applies the backpressure
  /// policy when the queue is full (ResourceExhausted when not blocking);
  /// Unavailable after Shutdown.
  /// On success the returned ticket completes once `*out` holds the n×C
  /// batch logits, and a non-empty `on_done` then fires on the worker
  /// thread. A synchronous failure (rejection, shutdown, invalid batch) is
  /// returned here and `on_done` never fires — callers own exactly one
  /// completion signal per request, never two. Every admitted request's
  /// callback fires even across Shutdown, which drains the queue before
  /// joining the workers.
  StatusOr<ServeTicket> Submit(const HeldOutBatch& batch, bool graph_batch,
                               Tensor* out, ServeCallback on_done = {});

  /// Submit + Wait.
  Status ServeSync(const HeldOutBatch& batch, bool graph_batch, Tensor* out);

  /// Releases workers paused by `start_paused`. No-op otherwise.
  void Resume();

  /// Stops admitting, unblocks rejected submitters, drains every queued
  /// request, and joins the workers. Idempotent; implied by destruction.
  void Shutdown();

  ReplicaPool& pool() { return pool_; }
  const Config& config() const { return config_; }

 private:
  void WorkerLoop(int worker_index);

  Config config_;
  ReplicaPool pool_;

  std::mutex mu_;
  std::condition_variable queue_cv_;  // workers: requests or shutdown
  std::condition_variable space_cv_;  // blocked submitters: space or shutdown
  std::deque<std::shared_ptr<ServeRequest>> queue_;
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
