#ifndef MCOND_OBS_METRICS_H_
#define MCOND_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Process-global metrics registry: named counters, gauges, fixed-bucket
/// histograms, and bounded series, snapshot-table to JSON.
///
///   obs::GetCounter("mcond.serve.requests").Increment();
///   obs::GetHistogram("mcond.serve.session_compose_us").Record(span.ElapsedMicros());
///   obs::GetSeries("mcond.condense.loss_s").Append(loss);
///   std::string json = obs::MetricsToJson();
///
/// Naming convention: dot-separated `mcond.<area>.<metric>[_<unit>]`, e.g.
/// `mcond.serve.session_compose_us`, `mcond.condense.loss_s`. Lookup takes a mutex;
/// hot paths should look a metric up once and keep the reference (instrument
/// handles are never invalidated). Updates are lock-free atomics except
/// Series, which appends under a mutex.

namespace mcond {
namespace obs {

/// Monotonically increasing integer (events, bytes processed, ...).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins scalar (current bytes, last epoch's eval score, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot;

/// Fixed-bucket histogram for non-negative integer samples — typically
/// latencies in µs. Bucket 0 counts [0, 2); bucket i counts [2^i, 2^(i+1))
/// for i >= 1; the last bucket absorbs everything above. All updates are
/// relaxed atomics, safe under concurrent Record.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;  // 2^39 µs ≈ 6.4 days of latency.

  void Record(uint64_t value);

  /// Bucket index a sample lands in (exposed for tests).
  static int BucketIndex(uint64_t value);
  /// Exclusive upper bound of bucket i (2^(i+1)).
  static uint64_t BucketUpperBound(int i) { return uint64_t{1} << (i + 1); }
  /// Inclusive lower bound of bucket i (0 for bucket 0, else 2^i).
  static uint64_t BucketLowerBound(int i) {
    return i == 0 ? 0 : uint64_t{1} << i;
  }

  /// Point-in-time copy of the whole histogram.
  HistogramSnapshot Snapshot() const;

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Min() const;  // 0 when empty.
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// Append-only bounded sequence of doubles — loss trajectories and other
/// per-round/per-epoch curves. Keeps the first kMaxSamples values and
/// counts (but drops) the rest, so runaway loops cannot grow memory.
class Series {
 public:
  static constexpr size_t kMaxSamples = 8192;

  void Append(double v);
  std::vector<double> Values() const;
  /// Total appends, including dropped ones.
  int64_t Count() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
  int64_t total_ = 0;
};

/// Point-in-time copy of one histogram's state. Exact under a quiesced
/// process; under concurrent Record the fields may be mutually slightly
/// stale (each is individually atomic). Snapshot deltas are how the
/// MetricsExporter computes per-interval latency quantiles.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  uint64_t min = 0;  // 0 when empty
  uint64_t max = 0;
  std::array<int64_t, Histogram::kNumBuckets> buckets{};
};

/// Point-in-time copy of every instrument in a registry, sorted by name
/// (map order). Series are represented by their retained values + total
/// count.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, int64_t>> series_counts;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or creates; returned references stay valid for the registry's
  /// lifetime (the process, for Global()).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);
  Series& GetSeries(const std::string& name);

  /// {"counters":{...},"gauges":{...},"histograms":{...},"series":{...}}.
  /// Histograms serialize count/sum/min/max plus non-empty buckets as
  /// {"le": <exclusive upper bound>, "count": n}. Non-finite values are
  /// emitted as JSON strings ("nan", "inf") to keep the document parseable.
  std::string ToJson() const;

  /// Structured point-in-time copy of every instrument (used by the
  /// MetricsExporter for delta-rate computation).
  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (version 0.0.4): counters and
  /// gauges as scalar samples, histograms as `<name>_bucket{le="..."}`
  /// cumulative buckets plus `_sum`/`_count`. Metric names have the dots
  /// of the mcond convention mapped to underscores; series are exported
  /// as `<name>_total` counters of their append count (the retained
  /// values have no Prometheus shape). Dynamic per-tenant names
  /// (`mcond.net.tenant.<name>.<metric>`) are label-like and export as one
  /// `mcond_net_tenant_<metric>` family per metric with a
  /// `tenant="<name>"` label (escaped per the exposition rules), so tenant
  /// names never collide after escaping and each family carries exactly
  /// one `# TYPE` line.
  std::string ToPrometheus() const;

  /// Drops every registered instrument (references into the registry are
  /// invalidated — tests only).
  void ResetForTesting();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

/// Approximate quantile (q in [0, 1], clamped) from a histogram snapshot's
/// pow-2 buckets — or from a *delta* of two snapshots (per-interval
/// quantiles in the MetricsExporter) — with linear interpolation inside
/// the bucket holding the ⌈q·count⌉-th smallest sample: the estimate is
/// `lower + (rank_within_bucket / bucket_count) * width`, clamped into
/// [min, max] so a reported percentile never lies outside the observed
/// range. 0 for an empty snapshot. Interpolation assumes samples spread
/// uniformly within a bucket, so the estimate is an approximation.
uint64_t HistogramApproxQuantile(const HistogramSnapshot& h, double q);

/// Element-wise `cur - prev` (buckets, count, sum); min/max are taken from
/// `cur` since extrema are not differentiable. The delta of two snapshots
/// of one histogram is the distribution of samples recorded between them.
HistogramSnapshot HistogramSnapshotDelta(const HistogramSnapshot& cur,
                                         const HistogramSnapshot& prev);

/// Conveniences over MetricsRegistry::Global().
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);
Series& GetSeries(const std::string& name);
std::string MetricsToJson();
std::string MetricsToPrometheus();

}  // namespace obs
}  // namespace mcond

#endif  // MCOND_OBS_METRICS_H_
