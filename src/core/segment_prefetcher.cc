#include "core/segment_prefetcher.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "core/logging.h"
#include "core/sharded_csr_state.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace mcond {

namespace {

constexpr int64_t kDefaultPrefetchSegments = 2;
constexpr int64_t kMaxPrefetchSegments = 64;

/// -1 = not yet resolved from the environment.
std::atomic<int64_t> g_prefetch_segments{-1};

int64_t ClampDepth(int64_t depth) {
  if (depth < 0) return 0;
  if (depth > kMaxPrefetchSegments) return kMaxPrefetchSegments;
  return depth;
}

/// Segments currently being fetched across all stores; mirrored by the
/// mcond.shard.prefetch.inflight gauge.
std::atomic<int64_t> g_inflight{0};

void TrackInflight(int64_t delta) {
  const int64_t now =
      g_inflight.fetch_add(delta, std::memory_order_relaxed) + delta;
  obs::GetGauge("mcond.shard.prefetch.inflight")
      .Set(static_cast<double>(now));
}

/// Touches one byte per page so the fault-in cost lands on the worker
/// thread, not on the consumer's first traversal of the segment.
void FaultIn(const CsrView& view, int64_t byte_size) {
  constexpr int64_t kPage = 4096;
  const volatile char* base =
      reinterpret_cast<const volatile char*>(view.row_ptr);
  unsigned char acc = 0;
  for (int64_t off = 0; off < byte_size; off += kPage) {
    acc ^= static_cast<unsigned char>(base[off]);
  }
  (void)acc;
}

}  // namespace

int64_t PrefetchSegments() {
  int64_t depth = g_prefetch_segments.load(std::memory_order_relaxed);
  if (depth >= 0) return depth;
  int64_t resolved = kDefaultPrefetchSegments;
  if (const char* env = std::getenv("MCOND_PREFETCH_SEGMENTS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0') {
      resolved = ClampDepth(static_cast<int64_t>(v));
    } else {
      MCOND_LOG(WARNING) << "ignoring malformed MCOND_PREFETCH_SEGMENTS='"
                         << env << "'";
    }
  }
  int64_t expected = -1;
  g_prefetch_segments.compare_exchange_strong(expected, resolved);
  depth = g_prefetch_segments.load(std::memory_order_relaxed);
  obs::GetGauge("mcond.shard.prefetch.depth").Set(static_cast<double>(depth));
  return depth;
}

void SetPrefetchSegments(int64_t depth) {
  depth = ClampDepth(depth);
  g_prefetch_segments.store(depth, std::memory_order_relaxed);
  obs::GetGauge("mcond.shard.prefetch.depth").Set(static_cast<double>(depth));
}

// ---------------------------------------------------------------------------
// SegmentPrefetcher
// ---------------------------------------------------------------------------

SegmentPrefetcher::SegmentPrefetcher(const ShardedCsr& store, int64_t depth)
    : SegmentPrefetcher(store.state_.get(), store.state_,
                        std::max<int64_t>(1, ClampDepth(depth))) {}

SegmentPrefetcher::SegmentPrefetcher(
    internal::ShardedCsrState* state,
    std::shared_ptr<internal::ShardedCsrState> keep_alive, int64_t depth)
    : state_(state), keep_alive_(std::move(keep_alive)), depth_(depth) {
  MCOND_CHECK(state_ != nullptr) << "prefetcher over an unopened store";
  MCOND_CHECK(depth_ > 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

SegmentPrefetcher::~SegmentPrefetcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    ++epoch_;  // An in-flight fetch completing after this is discarded.
    schedule_.clear();
    worker_cv_.notify_all();
    consumer_cv_.notify_all();
  }
  worker_.join();
  // ready_ destructs after the join, releasing any unclaimed pins while the
  // mapping state is still alive (keep_alive_ is destroyed later; a
  // state-owned prefetcher is reset at the top of the state's destructor).
}

bool SegmentPrefetcher::AdmitsBudget(int64_t index) const {
  const int64_t budget = state_->mem_budget_bytes;
  if (budget <= 0) return true;
  const int64_t payload = state_->payload_bytes[static_cast<size_t>(index)];
  return state_->pinned_bytes.load(std::memory_order_relaxed) + payload <=
         budget;
}

void SegmentPrefetcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    worker_cv_.wait(lock, [&] {
      return stop_ || (!schedule_.empty() &&
                       static_cast<int64_t>(ready_.size()) < depth_);
    });
    if (stop_) return;
    const int64_t index = schedule_.front();
    if (!AdmitsBudget(index)) {
      // The budget is full of pinned payload; fetching now would overshoot,
      // so hold off (the consumer degrades to synchronous pins meanwhile).
      // Pins are released outside our cv, hence the short timed re-check.
      worker_cv_.wait_for(lock, std::chrono::microseconds(200),
                          [&] { return stop_; });
      continue;
    }
    schedule_.pop_front();
    const uint64_t epoch = epoch_;
    inflight_ = index;
    lock.unlock();

    TrackInflight(+1);
    StatusOr<PinnedSegment> pin = state_->PinSegment(index);
    if (pin.ok()) {
      FaultIn(pin.value().view(),
              state_->payload_bytes[static_cast<size_t>(index)]);
    }
    TrackInflight(-1);

    lock.lock();
    inflight_ = -1;
    if (!stop_ && epoch_ == epoch) {
      Ready r;
      r.index = index;
      if (pin.ok()) {
        r.pin = std::move(pin).value();
      } else {
        r.status = pin.status();
      }
      ready_.push_back(std::move(r));
      ++stats_.issued;
      obs::GetCounter("mcond.shard.prefetch.issued").Increment();
    }
    // A stale-epoch pin is simply dropped: `pin` (if still engaged) releases
    // at the end of this iteration.
    consumer_cv_.notify_all();
  }
}

void SegmentPrefetcher::Hint(std::vector<int64_t> order) {
  std::deque<Ready> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
    schedule_.assign(order.begin(), order.end());
    dropped.swap(ready_);
    worker_cv_.notify_all();
  }
  // Dropped pins from the previous schedule release outside the lock.
}

void SegmentPrefetcher::Cancel() {
  std::deque<Ready> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++epoch_;
    schedule_.clear();
    dropped.swap(ready_);
    worker_cv_.notify_all();
  }
}

StatusOr<PinnedSegment> SegmentPrefetcher::AcquireOrPin(int64_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  auto find_ready = [&]() -> size_t {
    for (size_t i = 0; i < ready_.size(); ++i) {
      if (ready_[i].index == index) return i;
    }
    return ready_.size();
  };
  size_t pos = find_ready();
  if (pos == ready_.size() && inflight_ == index) {
    // The worker is fetching exactly this segment: wait for the handover
    // instead of duplicating the I/O.
    const auto t0 = std::chrono::steady_clock::now();
    consumer_cv_.wait(lock, [&] { return inflight_ != index; });
    const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    ++stats_.stalls;
    stats_.stall_us += us;
    obs::GetHistogram("mcond.shard.prefetch.stall_us")
        .Record(static_cast<uint64_t>(us >= 0 ? us : 0));
    pos = find_ready();
  }
  if (pos < ready_.size()) {
    // Entries queued before this one are stale — the consumer has moved past
    // them — so drop them too and let their pins release.
    std::vector<Ready> taken;
    taken.reserve(pos + 1);
    for (size_t i = 0; i <= pos; ++i) {
      taken.push_back(std::move(ready_.front()));
      ready_.pop_front();
    }
    Ready r = std::move(taken.back());
    taken.pop_back();
    ++stats_.hits;
    obs::GetCounter("mcond.shard.prefetch.hits").Increment();
    worker_cv_.notify_all();
    lock.unlock();
    taken.clear();  // stale pins release here, outside the lock
    if (!r.status.ok()) return r.status;
    return std::move(r.pin);
  }
  // Miss: not fetched (never scheduled, dropped, or skipped by admission).
  // Consume it from the schedule so the worker does not fetch it behind us.
  for (auto it = schedule_.begin(); it != schedule_.end(); ++it) {
    if (*it == index) {
      schedule_.erase(it);
      break;
    }
  }
  ++stats_.misses;
  obs::GetCounter("mcond.shard.prefetch.misses").Increment();
  worker_cv_.notify_all();
  lock.unlock();
  return state_->PinSegment(index);
}

SegmentPrefetcher::Stats SegmentPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// State-owned prefetcher plumbing
// ---------------------------------------------------------------------------

namespace internal {

SegmentPrefetcher* ShardedCsrState::EnsurePrefetcher(int64_t depth) {
  std::lock_guard<std::mutex> lock(prefetcher_mu);
  if (!prefetcher && depth > 0) {
    prefetcher.reset(new SegmentPrefetcher(this, nullptr, depth));
  }
  return prefetcher.get();
}

SegmentPrefetcher* ShardedCsrState::prefetcher_or_null() {
  std::lock_guard<std::mutex> lock(prefetcher_mu);
  return prefetcher.get();
}

}  // namespace internal

// ---------------------------------------------------------------------------
// SequentialCursor
// ---------------------------------------------------------------------------

SequentialCursor::SequentialCursor(const ShardedCsr& store) : store_(&store) {
  order_.resize(static_cast<size_t>(store.NumSegments()));
  for (size_t i = 0; i < order_.size(); ++i) {
    order_[i] = static_cast<int64_t>(i);
  }
  store_->PrefetchHintSegments(order_);
}

SequentialCursor::SequentialCursor(const ShardedCsr& store,
                                   std::vector<int64_t> order)
    : store_(&store), order_(std::move(order)) {
  store_->PrefetchHintSegments(order_);
}

SequentialCursor::~SequentialCursor() {
  // Only an abandoned schedule needs cancelling; a fully consumed cursor
  // must not clobber a hint some later cursor already issued.
  if (next_ < order_.size()) store_->CancelPrefetch();
}

StatusOr<PinnedSegment> SequentialCursor::Next() {
  if (next_ >= order_.size()) {
    return Status::OutOfRange("sequential cursor: schedule exhausted");
  }
  return store_->PinPrefetched(order_[next_++]);
}

}  // namespace mcond
