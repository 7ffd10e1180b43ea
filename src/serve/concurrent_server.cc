#include "serve/concurrent_server.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace mcond {

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
  queue_.resize(static_cast<size_t>(config_.queue_capacity));
  workers_.reserve(static_cast<size_t>(config_.num_replicas));
  for (int i = 0; i < config_.num_replicas; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ConcurrentServer::~ConcurrentServer() { Shutdown(); }

Status ConcurrentServer::Submit(const HeldOutBatch& batch, bool graph_batch,
                                Tensor* out, ServeCallback on_done) {
  // Validate here, on the submitter's thread: a worker aborting the whole
  // process on a malformed request would take every other client with it.
  if (out == nullptr) {
    return Status::InvalidArgument("Submit: output tensor is null");
  }
  if (!on_done) {
    return Status::InvalidArgument("Submit: completion callback is empty");
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

  // The submit span starts this request's trace flow on the client thread;
  // the worker's server.request span terminates it, so one request renders
  // as one connected chain across threads. A blocking submit keeps the
  // span open while backpressured, making admission stalls visible.
  obs::TraceSpan submit_span("server.submit");
  uint64_t flow_id = 0;
  if (obs::TracingEnabled()) {
    flow_id = obs::NewTraceFlowId();
    submit_span.SetFlow(flow_id, obs::FlowPhase::kStart);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [&] {
      return queue_size_ < queue_.size() || !config_.block_when_full ||
             !accepting_;
    });
    if (!accepting_) {
      rejected_.Increment();
      return Status::Unavailable("Submit: server is shut down");
    }
    if (queue_size_ == queue_.size()) {
      rejected_.Increment();
      return Status::ResourceExhausted("Submit: request queue full");
    }
    Request& slot = queue_[(queue_head_ + queue_size_) % queue_.size()];
    slot.batch = &batch;
    slot.graph_batch = graph_batch;
    slot.out = out;
    slot.timing = ServeTiming{};
    slot.timing.enqueue_us = obs::MonotonicMicros();
    slot.flow_id = flow_id;
    slot.on_done = std::move(on_done);
    ++queue_size_;
    queue_depth_.Set(static_cast<double>(queue_size_));
    requests_.Increment();
  }
  if (flow_id != 0) obs::TraceAsyncBegin("server.queued", flow_id);
  queue_cv_.notify_one();
  return Status::Ok();
}

Status ConcurrentServer::ServeSync(const HeldOutBatch& batch,
                                   bool graph_batch, Tensor* out) {
  // The waiter lives on this frame. The callback sets `done` and notifies
  // while holding the waiter's mutex, so once this thread sees `done` under
  // that mutex the worker has finished touching the waiter.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  } waiter;
  Waiter* w = &waiter;
  Status st = Submit(batch, graph_batch, out, [w](const ServeTiming&) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->done = true;
    w->cv.notify_one();
  });
  if (!st.ok()) return st;
  std::unique_lock<std::mutex> lock(waiter.mu);
  waiter.cv.wait(lock, [&] { return waiter.done; });
  return Status::Ok();
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
  // Requests move out of the ring into this worker-owned buffer, so
  // submitters can refill their slots while they are served.
  std::vector<Request> drained;
  drained.reserve(static_cast<size_t>(
      std::min(config_.micro_batch, config_.queue_capacity)));
  for (;;) {
    drained.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && queue_size_ > 0);
      });
      if (queue_size_ == 0) {
        if (stopping_) return;
        continue;
      }
      // Micro-batching: drain up to micro_batch requests in this one lock
      // acquisition; they are served back-to-back on the warm replica
      // below, each with its solo per-request math (never merged into one
      // composed adjacency — that would change the logits).
      const uint64_t dequeue_us = obs::MonotonicMicros();
      while (queue_size_ > 0 &&
             static_cast<int>(drained.size()) < config_.micro_batch) {
        Request& slot = queue_[queue_head_];
        slot.timing.dequeue_us = dequeue_us;
        drained.push_back(std::move(slot));
        queue_head_ = (queue_head_ + 1) % queue_.size();
        --queue_size_;
      }
      queue_depth_.Set(static_cast<double>(queue_size_));
      inflight_.Set(inflight_.Value() + static_cast<double>(drained.size()));
    }
    space_cv_.notify_all();
    for (const Request& req : drained) {
      if (req.flow_id != 0) obs::TraceAsyncEnd("server.queued", req.flow_id);
    }
    if (drained.size() > 1) micro_batches_.Increment();

    {
      // One batch span per coalesced drain: the N request flows of the
      // drained batch all fan into it in the trace view.
      obs::TraceSpan batch_span(drained.size() > 1 ? "server.micro_batch"
                                                   : "server.drain");
      for (Request& req : drained) {
        obs::TraceSpan request_span("server.request");
        request_span.SetFlow(req.flow_id, obs::FlowPhase::kEnd);
        const Tensor& logits = replica.Serve(*req.batch, req.graph_batch, rng);
        Tensor& out = *req.out;
        if (out.rows() != logits.rows() || out.cols() != logits.cols()) {
          // Allocates off-arena (heap): the buffer must outlive this
          // serve. Steady-state callers reuse a warm tensor and skip this.
          out = Tensor::Uninitialized(logits.rows(), logits.cols());
        }
        std::memcpy(out.data(), logits.data(),
                    static_cast<size_t>(logits.size()) * sizeof(float));
        req.timing.done_us = obs::MonotonicMicros();
        // queue_wait + service sums to latency exactly: all three come
        // from the same three stamps.
        latency_us_.Record(req.timing.latency_us());
        queue_wait_us_.Record(req.timing.queue_wait_us());
        service_us_.Record(req.timing.service_us());
        req.on_done(req.timing);
      }
    }
    const uint64_t idle_end_us = drained.front().timing.dequeue_us;
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
