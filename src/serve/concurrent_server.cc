#include "serve/concurrent_server.h"

#include <cstring>
#include <string>
#include <utility>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace mcond {

/// One queued serve. The submitter owns the batch and output tensor; the
/// server owns the lifecycle (enqueue → serve → completion signal) through
/// a shared_ptr held by both the queue and the ticket. `timing` carries
/// the request across the thread boundary together with its trace flow
/// id, so the worker can close the flow the submitter opened.
struct ServeRequest {
  const HeldOutBatch* batch = nullptr;
  bool graph_batch = false;
  Tensor* out = nullptr;
  ServeTiming timing;
  /// Trace flow correlation id; 0 when tracing was off at submit time.
  uint64_t flow_id = 0;
  /// Optional completion hook, fired on the worker thread after the ticket
  /// is signaled (see ConcurrentServer::ServeCallback).
  ConcurrentServer::ServeCallback on_done;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
  Status status;      // guarded by mu
};

Status ServeTicket::Wait() {
  MCOND_CHECK(req_ != nullptr) << "Wait() on an empty ServeTicket";
  std::unique_lock<std::mutex> lock(req_->mu);
  req_->cv.wait(lock, [&] { return req_->done; });
  return req_->status;
}

ServeTiming ServeTicket::timing() const {
  MCOND_CHECK(req_ != nullptr) << "timing() on an empty ServeTicket";
  std::lock_guard<std::mutex> lock(req_->mu);
  return req_->timing;
}

ReplicaPool::ReplicaPool(std::shared_ptr<const SessionBase> base,
                         GnnModel& model, int num_replicas)
    : base_(std::move(base)) {
  MCOND_CHECK(base_ != nullptr);
  MCOND_CHECK_GE(num_replicas, 1);
  replicas_.reserve(static_cast<size_t>(num_replicas));
  for (int i = 0; i < num_replicas; ++i) {
    replicas_.push_back(std::make_unique<ServingSession>(base_, model));
  }
}

int64_t ReplicaPool::memory_bytes() const {
  int64_t bytes = base_->memory_bytes();
  for (const auto& r : replicas_) bytes += r->workspace_bytes();
  return bytes;
}

ConcurrentServer::ConcurrentServer(std::shared_ptr<const SessionBase> base,
                                   GnnModel& model, const Config& config)
    : config_(config),
      pool_(std::move(base), model, config.num_replicas),
      paused_(config.start_paused),
      requests_(obs::GetCounter("mcond.server.requests")),
      rejected_(obs::GetCounter("mcond.server.rejected")),
      micro_batches_(obs::GetCounter("mcond.server.micro_batches")),
      queue_depth_(obs::GetGauge("mcond.server.queue_depth")),
      inflight_(obs::GetGauge("mcond.server.inflight")),
      latency_us_(obs::GetHistogram("mcond.server.latency_us")),
      queue_wait_us_(obs::GetHistogram("mcond.server.queue_wait_us")),
      service_us_(obs::GetHistogram("mcond.server.service_us")) {
  MCOND_CHECK_GE(config_.queue_capacity, 1);
  MCOND_CHECK_GE(config_.micro_batch, 1);
  workers_.reserve(static_cast<size_t>(config_.num_replicas));
  for (int i = 0; i < config_.num_replicas; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ConcurrentServer::~ConcurrentServer() { Shutdown(); }

StatusOr<ServeTicket> ConcurrentServer::Submit(const HeldOutBatch& batch,
                                               bool graph_batch, Tensor* out,
                                               ServeCallback on_done) {
  // Validate here, on the submitter's thread: a worker aborting the whole
  // process on a malformed request would take every other client with it.
  if (out == nullptr) {
    return Status::InvalidArgument("Submit: output tensor is null");
  }
  const SessionBase& sb = *pool_.session_base();
  const int64_t n = batch.size();
  if (n <= 0) {
    return Status::InvalidArgument("Submit: cannot serve an empty batch");
  }
  if (batch.features.cols() != sb.feat_dim) {
    return Status::InvalidArgument("Submit: feature dim mismatch");
  }
  if (batch.links.rows() != n) {
    return Status::InvalidArgument("Submit: links row count != batch size");
  }
  const int64_t want_cols =
      sb.mapping != nullptr ? sb.mapping->rows() : sb.n_base;
  if (batch.links.cols() != want_cols) {
    return Status::InvalidArgument("Submit: links column count mismatch");
  }
  if (graph_batch && (batch.inter.rows() != n || batch.inter.cols() != n)) {
    return Status::InvalidArgument("Submit: inter adjacency is not n x n");
  }

  auto req = std::make_shared<ServeRequest>();
  req->batch = &batch;
  req->graph_batch = graph_batch;
  req->out = out;
  req->on_done = std::move(on_done);
  // The submit span starts this request's trace flow on the client thread;
  // the worker's server.request span terminates it, so one request renders
  // as one connected chain across threads. A blocking submit keeps the
  // span open while backpressured, making admission stalls visible.
  obs::TraceSpan submit_span("server.submit");
  if (obs::TracingEnabled()) {
    req->flow_id = obs::NewTraceFlowId();
    submit_span.SetFlow(req->flow_id, obs::FlowPhase::kStart);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!accepting_) {
      rejected_.Increment();
      return Status::Unavailable("Submit: server is shut down");
    }
    if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
      if (!config_.block_when_full) {
        rejected_.Increment();
        return Status::ResourceExhausted("Submit: request queue full");
      }
      space_cv_.wait(lock, [&] {
        return static_cast<int>(queue_.size()) < config_.queue_capacity ||
               !accepting_;
      });
      if (!accepting_) {
        rejected_.Increment();
        return Status::Unavailable("Submit: server is shut down");
      }
    }
    req->timing.enqueue_us = obs::MonotonicMicros();
    queue_.push_back(req);
    queue_depth_.Set(static_cast<double>(queue_.size()));
    requests_.Increment();
  }
  if (req->flow_id != 0) {
    obs::TraceAsyncBegin("server.queued", req->flow_id);
  }
  queue_cv_.notify_one();
  return ServeTicket(std::move(req));
}

Status ConcurrentServer::ServeSync(const HeldOutBatch& batch,
                                   bool graph_batch, Tensor* out) {
  StatusOr<ServeTicket> ticket = Submit(batch, graph_batch, out);
  if (!ticket.ok()) return ticket.status();
  return ticket.value().Wait();
}

void ConcurrentServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void ConcurrentServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
    paused_ = false;  // a paused server still drains what it admitted
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void ConcurrentServer::WorkerLoop(int worker_index) {
  // The whole worker runs "inside a parallel region": every ParallelFor the
  // replica's kernels issue executes inline at width 1 on this thread.
  // Bit-identical by the determinism contract, and K workers make progress
  // truly concurrently instead of serializing on the pool's dispatch lock.
  ScopedInlineParallelRegion inline_region;
  ServingSession& replica = pool_.replica(worker_index);
  // Inference never draws from the Rng (Dropout is a no-op at serve time);
  // a worker-local stream exists only to satisfy the Serve signature.
  Rng rng(0x5eed0000ull + static_cast<uint64_t>(worker_index));
  // metric-name: mcond.server.worker<i>_busy_ratio
  obs::Gauge& busy_ratio = obs::GetGauge(
      "mcond.server.worker" + std::to_string(worker_index) + "_busy_ratio");
  const uint64_t worker_start_us = obs::MonotonicMicros();
  uint64_t busy_us = 0;
  std::vector<std::shared_ptr<ServeRequest>> drained;
  for (;;) {
    drained.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Micro-batching: drain up to micro_batch requests in this one lock
      // acquisition; they are served back-to-back on the warm replica
      // below, each with its solo per-request math (never merged into one
      // composed adjacency — that would change the logits).
      const uint64_t dequeue_us = obs::MonotonicMicros();
      while (!queue_.empty() &&
             static_cast<int>(drained.size()) < config_.micro_batch) {
        queue_.front()->timing.dequeue_us = dequeue_us;
        drained.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth_.Set(static_cast<double>(queue_.size()));
      inflight_.Set(inflight_.Value() + static_cast<double>(drained.size()));
    }
    space_cv_.notify_all();
    for (const std::shared_ptr<ServeRequest>& req : drained) {
      if (req->flow_id != 0) {
        obs::TraceAsyncEnd("server.queued", req->flow_id);
      }
    }
    if (drained.size() > 1) micro_batches_.Increment();

    {
      // One batch span per coalesced drain: the N request flows of the
      // drained batch all fan into it in the trace view.
      obs::TraceSpan batch_span(drained.size() > 1 ? "server.micro_batch"
                                                   : "server.drain");
      for (const std::shared_ptr<ServeRequest>& req : drained) {
        obs::TraceSpan request_span("server.request");
        request_span.SetFlow(req->flow_id, obs::FlowPhase::kEnd);
        const Tensor& logits =
            replica.Serve(*req->batch, req->graph_batch, rng);
        Tensor& out = *req->out;
        if (out.rows() != logits.rows() || out.cols() != logits.cols()) {
          // Allocates off-arena (heap): the buffer must outlive this
          // serve. Steady-state callers reuse a warm tensor and skip this.
          out = Tensor::Uninitialized(logits.rows(), logits.cols());
        }
        std::memcpy(out.data(), logits.data(),
                    static_cast<size_t>(logits.size()) * sizeof(float));
        const uint64_t done_us = obs::MonotonicMicros();
        // queue_wait + service sums to latency exactly: all three come
        // from the same three stamps.
        latency_us_.Record(done_us - req->timing.enqueue_us);
        queue_wait_us_.Record(req->timing.dequeue_us -
                              req->timing.enqueue_us);
        service_us_.Record(done_us - req->timing.dequeue_us);
        {
          std::lock_guard<std::mutex> done_lock(req->mu);
          req->timing.done_us = done_us;
          req->done = true;
          req->status = Status::Ok();
        }
        req->cv.notify_all();
        if (req->on_done) {
          // The three stamps were written by this thread; pass a local copy
          // so the callback never touches req's lock (a waiter may already
          // be destroying its ticket).
          ServeTiming timing;
          timing.enqueue_us = req->timing.enqueue_us;
          timing.dequeue_us = req->timing.dequeue_us;
          timing.done_us = done_us;
          req->on_done(timing);
        }
      }
    }
    const uint64_t idle_end_us = drained.front()->timing.dequeue_us;
    const uint64_t now_us = obs::MonotonicMicros();
    busy_us += now_us - idle_end_us;
    if (now_us > worker_start_us) {
      busy_ratio.Set(static_cast<double>(busy_us) /
                     static_cast<double>(now_us - worker_start_us));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.Set(inflight_.Value() - static_cast<double>(drained.size()));
    }
  }
}

}  // namespace mcond
