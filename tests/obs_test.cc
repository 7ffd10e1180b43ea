// Tests for the observability subsystem (src/obs/): span nesting and
// ordering, histogram bucket boundaries, counter atomicity under thread
// contention, trace/metrics JSON well-formedness (parsed with a minimal
// JSON checker below), and log-level filtering via the environment.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mcond {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker. Accepts exactly the JSON
// grammar (objects, arrays, strings with escapes, numbers, true/false/null);
// returns false on trailing garbage or malformed input.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, SanityOnKnownInputs) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})")
                  .Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1} trailing)").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":})").Valid());
}

// ---------------------------------------------------------------------------
// Tracer.

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ClearTrace();
    obs::EnableTracing(true);
  }
  void TearDown() override {
    obs::EnableTracing(false);
    obs::ClearTrace();
  }
};

TEST_F(TraceTest, SpanNestingAndOrdering) {
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
      (void)sink;
    }
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are appended when they close, so the inner span lands first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.tid, outer.tid);
  // Containment (1µs slack for timestamp truncation).
  EXPECT_GE(inner.start_us + 1, outer.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us,
            outer.start_us + outer.dur_us + 1);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  obs::EnableTracing(false);
  {
    obs::TraceSpan span("invisible");
  }
  EXPECT_EQ(obs::TraceSnapshot().size(), 0u);
}

TEST_F(TraceTest, AlwaysTimeSpanMeasuresWhileDisabled) {
  obs::EnableTracing(false);
  obs::TraceSpan span("stopwatch", /*always_time=*/true);
  volatile unsigned sink = 0;
  for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  (void)sink;
  EXPECT_GE(span.ElapsedSeconds(), 0.0);
  EXPECT_EQ(span.ElapsedMicros() == 0,
            span.ElapsedSeconds() == 0.0);  // Consistent units.
  EXPECT_EQ(obs::TraceSnapshot().size(), 0u);
}

TEST_F(TraceTest, TraceJsonIsWellFormedAndNamesSpans) {
  {
    obs::TraceSpan a("alpha");
    obs::TraceSpan b("beta \"quoted\"");
  }
  const std::string json = obs::TraceToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("alpha"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceTest, RingOverflowDropsOldestAndCounts) {
  const int64_t dropped_metric_before =
      obs::GetCounter("mcond.trace.dropped").Value();
  const uint64_t over = 100;
  const uint64_t capacity = 1 << 16;
  for (uint64_t i = 0; i < capacity + over; ++i) {
    obs::TraceSpan span("tick");
  }
  EXPECT_EQ(obs::TraceEventsRecorded(), capacity + over);
  EXPECT_EQ(obs::TraceEventsDropped(), over);
  EXPECT_EQ(obs::TraceSnapshot().size(), capacity);
  // Drops surface in the metrics registry too, so exporters can alert on
  // truncated traces without reading the trace API.
  EXPECT_EQ(obs::GetCounter("mcond.trace.dropped").Value() -
                dropped_metric_before,
            static_cast<int64_t>(over));
}

TEST_F(TraceTest, SpansFromMultipleThreadsGetDistinctTracks) {
  std::thread t([] {
    obs::TraceSpan span("worker");
  });
  t.join();
  {
    obs::TraceSpan span("main");
  }
  const std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, FlowIdsAreUniqueAndNonZero) {
  const uint64_t a = obs::NewTraceFlowId();
  const uint64_t b = obs::NewTraceFlowId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, SpanFlowAnnotationsLandInSnapshot) {
  const uint64_t flow = obs::NewTraceFlowId();
  {
    obs::TraceSpan producer("produce");
    producer.SetFlow(flow, obs::FlowPhase::kStart);
  }
  std::thread t([flow] {
    obs::TraceSpan consumer("consume");
    consumer.SetFlow(flow, obs::FlowPhase::kEnd);
  });
  t.join();
  const std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].flow_id, flow);
  EXPECT_EQ(events[0].flow, obs::FlowPhase::kStart);
  EXPECT_EQ(events[1].flow_id, flow);
  EXPECT_EQ(events[1].flow, obs::FlowPhase::kEnd);
  EXPECT_NE(events[0].tid, events[1].tid);  // the flow crossed threads
}

TEST_F(TraceTest, FlowJsonEmitsConnectedFlowEvents) {
  const uint64_t flow = obs::NewTraceFlowId();
  {
    obs::TraceSpan producer("produce");
    producer.SetFlow(flow, obs::FlowPhase::kStart);
  }
  {
    obs::TraceSpan consumer("consume");
    consumer.SetFlow(flow, obs::FlowPhase::kEnd);
  }
  const std::string json = obs::TraceToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // One flow-start ('s') and one flow-finish ('f') companion event, bound
  // to the enclosing slices ("bp":"e"), sharing the flow id.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos) << json;
  char id_field[32];
  std::snprintf(id_field, sizeof(id_field), "\"id\":%llu",
                static_cast<unsigned long long>(flow));
  EXPECT_NE(json.find(id_field), std::string::npos) << json;
}

TEST_F(TraceTest, AsyncEventsPairUpInJson) {
  const uint64_t flow = obs::NewTraceFlowId();
  obs::TraceAsyncBegin("queued", flow);
  obs::TraceAsyncEnd("queued", flow);
  const std::vector<obs::TraceEvent> events = obs::TraceSnapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, obs::TraceEvent::Kind::kAsyncBegin);
  EXPECT_EQ(events[1].kind, obs::TraceEvent::Kind::kAsyncEnd);
  const std::string json = obs::TraceToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos) << json;
}

TEST_F(TraceTest, AsyncMarkersAreFreeWhenDisabled) {
  obs::EnableTracing(false);
  obs::TraceAsyncBegin("ghost", 123);
  obs::TraceAsyncEnd("ghost", 123);
  EXPECT_EQ(obs::TraceSnapshot().size(), 0u);
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 is [0,2); bucket i is [2^i, 2^{i+1}).
  EXPECT_EQ(obs::Histogram::BucketIndex(0), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(1), 0);
  EXPECT_EQ(obs::Histogram::BucketIndex(2), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(3), 1);
  EXPECT_EQ(obs::Histogram::BucketIndex(4), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(7), 2);
  EXPECT_EQ(obs::Histogram::BucketIndex(8), 3);
  EXPECT_EQ(obs::Histogram::BucketIndex(1023), 9);
  EXPECT_EQ(obs::Histogram::BucketIndex(1024), 10);
  // Everything beyond the last boundary collapses into the final bucket.
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}),
            obs::Histogram::kNumBuckets - 1);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(0), 2u);
  EXPECT_EQ(obs::Histogram::BucketUpperBound(3), 16u);
}

TEST(HistogramTest, RecordUpdatesCountSumMinMax) {
  obs::Histogram h;
  h.Record(5);
  h.Record(100);
  h.Record(1);
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.Sum(), 106);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 100u);
  EXPECT_EQ(h.BucketCount(obs::Histogram::BucketIndex(5)), 1);
  EXPECT_EQ(h.BucketCount(obs::Histogram::BucketIndex(100)), 1);
  EXPECT_EQ(h.BucketCount(0), 1);  // The sample `1`.
}

TEST(HistogramTest, ApproxQuantileInterpolatesWithinBuckets) {
  obs::Histogram empty;
  EXPECT_EQ(obs::HistogramApproxQuantile(empty.Snapshot(), 0.5), 0u);

  obs::Histogram h;
  // 90 fast samples around 10us, 10 slow ones around 1000us.
  for (int i = 0; i < 90; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(1000);
  // p50 lands in the [8,16) bucket holding all 90 fast samples; linear
  // interpolation puts rank 50 of 90 at 8 + (50/90)*8 = 12.44 -> 12.
  EXPECT_EQ(obs::HistogramApproxQuantile(h.Snapshot(), 0.5), 12u);
  // p99 is rank 99: 9 of the 10 samples in [512,1024) are below it, so
  // 512 + 0.9*512 = 972 (within the observed max of 1000, no clamp).
  EXPECT_EQ(obs::HistogramApproxQuantile(h.Snapshot(), 0.99), 972u);
  // Quantiles below the observed minimum clamp up to it: rank 1 of 90
  // interpolates to 8.09 inside [8,16), but no sample was below 10.
  EXPECT_EQ(obs::HistogramApproxQuantile(h.Snapshot(), 0.0), 10u);
  // The top of the distribution clamps to the observed max.
  EXPECT_EQ(obs::HistogramApproxQuantile(h.Snapshot(), 1.0), 1000u);

  // A single sample reports itself exactly: interpolation reaches the
  // bucket's upper bound (8), the max clamp pulls it back to 7.
  obs::Histogram one;
  one.Record(7);
  EXPECT_EQ(obs::HistogramApproxQuantile(one.Snapshot(), 0.5), 7u);

  // Uniform fill of one bucket: quantiles step monotonically through it
  // instead of all collapsing onto the upper bound.
  obs::Histogram uniform;
  for (int i = 0; i < 100; ++i) {
    uniform.Record(64 + static_cast<uint64_t>(i % 64));  // all in [64,128)
  }
  const uint64_t q25 = obs::HistogramApproxQuantile(uniform.Snapshot(), 0.25);
  const uint64_t q50 = obs::HistogramApproxQuantile(uniform.Snapshot(), 0.5);
  const uint64_t q75 = obs::HistogramApproxQuantile(uniform.Snapshot(), 0.75);
  EXPECT_LT(q25, q50);
  EXPECT_LT(q50, q75);
  EXPECT_EQ(q25, 80u);   // 64 + 0.25*64
  EXPECT_EQ(q50, 96u);   // 64 + 0.50*64
  EXPECT_EQ(q75, 112u);  // 64 + 0.75*64
}

TEST(MetricsTest, CounterIsAtomicUnderContention) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kIncrements);
}

TEST(MetricsTest, HistogramIsConsistentUnderContention) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kSamples = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kSamples; ++i) {
        h.Record(static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), int64_t{kThreads} * kSamples);
  int64_t bucket_total = 0;
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    bucket_total += h.BucketCount(i);
  }
  EXPECT_EQ(bucket_total, h.Count());
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 999u);
}

TEST(MetricsTest, SeriesKeepsFirstSamplesAndCountsAll) {
  obs::Series s;
  for (size_t i = 0; i < obs::Series::kMaxSamples + 10; ++i) {
    s.Append(static_cast<double>(i));
  }
  EXPECT_EQ(s.Values().size(), obs::Series::kMaxSamples);
  EXPECT_EQ(s.Count(),
            static_cast<int64_t>(obs::Series::kMaxSamples) + 10);
  EXPECT_EQ(s.Values().front(), 0.0);
}

TEST(MetricsTest, RegistryJsonIsWellFormedAndCompleteRoundTrip) {
  obs::MetricsRegistry registry;
  registry.GetCounter("mcond.test.requests").Increment(3);
  registry.GetGauge("mcond.test.bytes").Set(1234.5);
  registry.GetHistogram("mcond.test.latency_us").Record(37);
  registry.GetSeries("mcond.test.loss").Append(0.75);
  // Non-finite values must serialize into parseable JSON.
  registry.GetGauge("mcond.test.nan").Set(std::nan(""));
  const std::string json = registry.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"mcond.test.requests\":3"), std::string::npos);
  EXPECT_NE(json.find("\"mcond.test.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"nan\""), std::string::npos);
  EXPECT_NE(json.find("0.75"), std::string::npos);
}

TEST(MetricsTest, GlobalRegistryHandlesAreStable) {
  obs::Counter& a = obs::GetCounter("mcond.test.stable");
  obs::Counter& b = obs::GetCounter("mcond.test.stable");
  EXPECT_EQ(&a, &b);
  const std::string json = obs::MetricsToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(MetricsTest, SnapshotIsSortedAndComplete) {
  obs::MetricsRegistry registry;
  registry.GetCounter("mcond.test.zulu").Increment(2);
  registry.GetCounter("mcond.test.alpha").Increment(1);
  registry.GetGauge("mcond.test.depth").Set(3.5);
  registry.GetHistogram("mcond.test.lat_us").Record(100);
  registry.GetSeries("mcond.test.loss").Append(0.5);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "mcond.test.alpha");
  EXPECT_EQ(snap.counters[0].second, 1);
  EXPECT_EQ(snap.counters[1].first, "mcond.test.zulu");
  EXPECT_EQ(snap.counters[1].second, 2);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 3.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1);
  EXPECT_EQ(snap.histograms[0].second.sum, 100);
  ASSERT_EQ(snap.series_counts.size(), 1u);
  EXPECT_EQ(snap.series_counts[0].second, 1);
}

TEST(MetricsTest, HistogramSnapshotDeltaIsolatesTheInterval) {
  obs::Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(10);
  const obs::HistogramSnapshot before = h.Snapshot();
  for (int i = 0; i < 30; ++i) h.Record(1000);
  const obs::HistogramSnapshot delta =
      obs::HistogramSnapshotDelta(h.Snapshot(), before);
  EXPECT_EQ(delta.count, 30);
  EXPECT_EQ(delta.sum, 30 * 1000);
  // Only the slow bucket moved during the interval, so interval quantiles
  // see none of the 50 earlier fast samples.
  EXPECT_GE(obs::HistogramApproxQuantile(delta, 0.5), 512u);
}

TEST(MetricsTest, PrometheusExpositionFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("mcond.test.requests").Increment(7);
  registry.GetGauge("mcond.test.queue_depth").Set(2.5);
  obs::Histogram& h = registry.GetHistogram("mcond.test.latency_us");
  h.Record(3);    // bucket [2,4)
  h.Record(100);  // bucket [64,128)
  registry.GetSeries("mcond.test.loss").Append(1.0);
  const std::string prom = registry.ToPrometheus();
  // Dots sanitize to underscores; every instrument carries a # TYPE line.
  EXPECT_NE(prom.find("# TYPE mcond_test_requests counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_requests 7"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE mcond_test_queue_depth gauge"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_queue_depth 2.5"), std::string::npos)
      << prom;
  // Histograms expose cumulative buckets ending in +Inf plus _sum/_count.
  EXPECT_NE(prom.find("# TYPE mcond_test_latency_us histogram"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_latency_us_bucket{le=\"4\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_latency_us_bucket{le=\"128\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_latency_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_latency_us_sum 103"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_test_latency_us_count 2"), std::string::npos)
      << prom;
  // Series surface as their sample-count counter.
  EXPECT_NE(prom.find("mcond_test_loss_total 1"), std::string::npos) << prom;
  // Text exposition must end with a newline (scrapers require it).
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(prom.back(), '\n');
}

TEST(MetricsTest, PrometheusTenantMetricsBecomeOneLabeledFamily) {
  // Dynamic per-tenant names (mcond.net.tenant.<name>.<metric>) are
  // label-like: every tenant folds into ONE family with a tenant label and
  // ONE # TYPE line — per-tenant families would collide after escaping and
  // strict exposition parsers reject duplicate TYPE blocks.
  obs::MetricsRegistry registry;
  registry.GetCounter("mcond.net.tenant.alpha.requests").Increment(3);
  registry.GetCounter("mcond.net.tenant.beta.requests").Increment(5);
  registry.GetCounter("mcond.net.tenant.beta.rejected").Increment(1);
  registry.GetHistogram("mcond.net.tenant.alpha.latency_us").Record(100);
  const std::string prom = registry.ToPrometheus();

  EXPECT_NE(prom.find("# TYPE mcond_net_tenant_requests counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_net_tenant_requests{tenant=\"alpha\"} 3"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_net_tenant_requests{tenant=\"beta\"} 5"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_net_tenant_rejected{tenant=\"beta\"} 1"),
            std::string::npos)
      << prom;
  // Exactly one TYPE line per family, no escaped per-tenant family names.
  size_t type_lines = 0, pos = 0;
  while ((pos = prom.find("# TYPE mcond_net_tenant_requests ", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u) << prom;
  EXPECT_EQ(prom.find("mcond_net_tenant_alpha_requests"), std::string::npos)
      << prom;
  // The tenant label composes with the histogram's le label; _sum/_count
  // carry the tenant label alone.
  EXPECT_NE(
      prom.find("mcond_net_tenant_latency_us_bucket{tenant=\"alpha\",le="),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mcond_net_tenant_latency_us_count{tenant=\"alpha\"} 1"),
            std::string::npos)
      << prom;
}

// ---------------------------------------------------------------------------
// Logging.

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    records_.clear();
    obs::SetLogSink([this](const obs::LogRecord& r) {
      records_.push_back(r);
    });
  }
  void TearDown() override {
    obs::SetLogSink(nullptr);
    unsetenv("MCOND_LOG_LEVEL");
    unsetenv("MCOND_VLOG");
    obs::ReinitLoggingFromEnv();
  }
  std::vector<obs::LogRecord> records_;
};

TEST_F(LogTest, LevelFilteringViaEnvVar) {
  setenv("MCOND_LOG_LEVEL", "error", /*overwrite=*/1);
  obs::ReinitLoggingFromEnv();
  MCOND_LOG(INFO) << "hidden info";
  MCOND_LOG(WARN) << "hidden warning";
  MCOND_LOG(ERROR) << "visible error " << 42;
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].level, obs::LogLevel::kError);
  EXPECT_EQ(records_[0].message, "visible error 42");
  EXPECT_GT(records_[0].line, 0);
}

TEST_F(LogTest, OffSilencesEverything) {
  setenv("MCOND_LOG_LEVEL", "off", /*overwrite=*/1);
  obs::ReinitLoggingFromEnv();
  MCOND_LOG(ERROR) << "even errors";
  EXPECT_TRUE(records_.empty());
}

TEST_F(LogTest, VlogGatedByVerbosityEnv) {
  setenv("MCOND_LOG_LEVEL", "info", /*overwrite=*/1);
  setenv("MCOND_VLOG", "2", /*overwrite=*/1);
  obs::ReinitLoggingFromEnv();
  MCOND_VLOG(1) << "shown v1";
  MCOND_VLOG(2) << "shown v2";
  MCOND_VLOG(3) << "hidden v3";
  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].verbosity, 1);
  EXPECT_EQ(records_[1].verbosity, 2);
}

TEST_F(LogTest, DisabledStatementsDoNotEvaluateOperands) {
  setenv("MCOND_LOG_LEVEL", "error", /*overwrite=*/1);
  obs::ReinitLoggingFromEnv();
  int evaluations = 0;
  auto touch = [&evaluations] {
    ++evaluations;
    return "x";
  };
  MCOND_LOG(INFO) << touch();
  EXPECT_EQ(evaluations, 0);
  MCOND_LOG(ERROR) << touch();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, ParseLogLevelAcceptsNamesAndNumbers) {
  obs::LogLevel level = obs::LogLevel::kInfo;
  EXPECT_TRUE(obs::ParseLogLevel("DEBUG", &level));
  EXPECT_EQ(level, obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::ParseLogLevel("warn", &level));
  EXPECT_EQ(level, obs::LogLevel::kWarning);
  EXPECT_TRUE(obs::ParseLogLevel("3", &level));
  EXPECT_EQ(level, obs::LogLevel::kError);
  EXPECT_FALSE(obs::ParseLogLevel("loud", &level));
  EXPECT_EQ(level, obs::LogLevel::kError);  // Unchanged on failure.
}

// ---------------------------------------------------------------------------
// InitObservabilityFromEnv: misconfigured environments must leave the
// defaults intact instead of silently flipping subsystems.

class EnvInitTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("MCOND_LOG_LEVEL");
    unsetenv("MCOND_VLOG");
    unsetenv("MCOND_TRACE");
    obs::EnableTracing(false);
    obs::ClearTrace();
    obs::ReinitLoggingFromEnv();
  }
};

TEST_F(EnvInitTest, InvalidLogLevelKeepsDefault) {
  setenv("MCOND_LOG_LEVEL", "loudest", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_EQ(obs::MinLogLevel(), obs::LogLevel::kInfo);
}

TEST_F(EnvInitTest, EmptyLogLevelKeepsDefault) {
  setenv("MCOND_LOG_LEVEL", "", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_EQ(obs::MinLogLevel(), obs::LogLevel::kInfo);
}

TEST_F(EnvInitTest, NegativeVlogClampsToZero) {
  setenv("MCOND_VLOG", "-3", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_EQ(obs::VerbosityLevel(), 0);
}

TEST_F(EnvInitTest, TraceZeroDisablesTracing) {
  obs::EnableTracing(true);
  setenv("MCOND_TRACE", "0", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_FALSE(obs::TracingEnabled());
}

TEST_F(EnvInitTest, TraceOneEnablesTracing) {
  setenv("MCOND_TRACE", "1", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_TRUE(obs::TracingEnabled());
}

TEST_F(EnvInitTest, UnparseableTraceValueLeavesStateUntouched) {
  obs::EnableTracing(true);
  setenv("MCOND_TRACE", "yes", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_TRUE(obs::TracingEnabled());  // "yes" is not an integer: no-op

  obs::EnableTracing(false);
  obs::InitObservabilityFromEnv();
  EXPECT_FALSE(obs::TracingEnabled());
}

TEST_F(EnvInitTest, EmptyTraceValueLeavesStateUntouched) {
  obs::EnableTracing(true);
  setenv("MCOND_TRACE", "", /*overwrite=*/1);
  obs::InitObservabilityFromEnv();
  EXPECT_TRUE(obs::TracingEnabled());
}

// ---------------------------------------------------------------------------
// MetricsExporter.

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(MetricsExporterTest, RejectsBadConfiguration) {
  obs::MetricsExporterOptions bad_interval;
  bad_interval.interval_ms = 0;
  obs::MetricsExporter e1(bad_interval);
  EXPECT_FALSE(e1.Start().ok());

  obs::MetricsExporterOptions bad_path;
  bad_path.jsonl_path = "no_such_dir/definitely/missing.jsonl";
  obs::MetricsExporter e2(bad_path);
  EXPECT_FALSE(e2.Start().ok());
}

TEST(MetricsExporterTest, StartTwiceFailsStopIsIdempotent) {
  obs::MetricsExporterOptions options;
  options.interval_ms = 50;
  obs::MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  EXPECT_FALSE(exporter.Start().ok());
  exporter.Stop();
  exporter.Stop();  // no-op
  EXPECT_GE(exporter.ticks(), 1);  // the final Stop() tick at minimum
}

TEST(MetricsExporterTest, JsonlTimelineIsValidAndCarriesRates) {
  const std::string path = "obs_exporter_test.jsonl";
  obs::Counter& counter = obs::GetCounter("mcond.test.export_requests");
  obs::Histogram& hist = obs::GetHistogram("mcond.test.export_lat_us");

  obs::MetricsExporterOptions options;
  options.jsonl_path = path;
  options.interval_ms = 5;
  obs::MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  // Concurrent updates while the exporter samples.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      counter.Increment();
      hist.Record(100);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stop.store(true, std::memory_order_relaxed);
  load.join();
  exporter.Stop();

  ASSERT_GE(exporter.ticks(), 2);
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(static_cast<int64_t>(lines.size()), exporter.ticks());
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  }
  EXPECT_NE(lines.back().find("\"mcond.test.export_requests\""),
            std::string::npos);
  EXPECT_NE(lines.back().find("\"interval_p50\""), std::string::npos);

  // One line per tick, read back: indices count up from 0, and some
  // interval saw a positive rate for the hot counter.
  const auto number_after = [](const std::string& line, size_t from,
                               const std::string& key) {
    const size_t at = line.find(key, from);
    if (at == std::string::npos) return -1.0;
    return std::strtod(line.c_str() + at + key.size(), nullptr);
  };
  double max_rate = 0.0;
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(number_after(lines[i], 0, "\"tick\":"), static_cast<double>(i))
        << lines[i];
    const size_t counter = lines[i].find("\"mcond.test.export_requests\"");
    if (counter == std::string::npos) continue;
    max_rate = std::max(max_rate,
                        number_after(lines[i], counter, "\"rate_per_s\":"));
  }
  EXPECT_GT(max_rate, 0.0);
  std::remove(path.c_str());
}

TEST(MetricsExporterTest, PrometheusFileIsRewrittenEachTick) {
  const std::string path = "obs_exporter_test.prom";
  obs::GetCounter("mcond.test.export_prom").Increment();
  obs::MetricsExporterOptions options;
  options.prometheus_path = path;
  options.interval_ms = 5;
  obs::MetricsExporter exporter(options);
  ASSERT_TRUE(exporter.Start().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  exporter.Stop();
  std::ostringstream content;
  content << std::ifstream(path).rdbuf();
  EXPECT_NE(content.str().find("# TYPE mcond_test_export_prom counter"),
            std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mcond
