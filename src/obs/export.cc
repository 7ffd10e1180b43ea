#include "obs/export.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/log.h"
#include "obs/trace.h"

namespace mcond {
namespace obs {

namespace {

Status WriteStringToFile(const std::string& path,
                         const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    return Status::InvalidArgument("short write to " + path);
  }
  return Status::Ok();
}

/// Rewrite via temp + rename so scrapers never read a half-written file.
Status WriteStringToFileAtomic(const std::string& path,
                               const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const Status status = WriteStringToFile(tmp, contents);
  if (!status.ok()) return status;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::InvalidArgument("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

void AppendJsonDouble(std::ostringstream& out, double v) {
  if (std::isnan(v)) {
    out << "\"nan\"";
  } else if (std::isinf(v)) {
    out << (v > 0 ? "\"inf\"" : "\"-inf\"");
  } else {
    out.precision(std::numeric_limits<double>::max_digits10);
    out << v;
  }
}

/// One exporter interval: the full registry snapshot plus what changed
/// since the previous tick. Vectors are name-aligned with
/// `snapshot.counters` / `snapshot.histograms`.
struct MetricsTick {
  uint64_t ts_us = 0;  // MonotonicMicros at snapshot time
  double dt_s = 0.0;   // seconds since the previous tick (or Start)
  int64_t index = 0;   // 0-based tick number
  MetricsSnapshot snapshot;
  /// (counter value - previous value) / dt_s, per counter.
  std::vector<std::pair<std::string, double>> counter_rates;
  /// Snapshot deltas: the samples recorded during this interval only.
  std::vector<std::pair<std::string, HistogramSnapshot>> histogram_deltas;
};

/// One JSONL time-series point. Counter rates and histogram interval
/// quantiles come from the tick's deltas; cumulative state rides along so
/// a line is self-contained.
std::string TickToJsonLine(const MetricsTick& tick) {
  std::ostringstream out;
  out << "{\"ts_us\":" << tick.ts_us << ",\"dt_s\":";
  AppendJsonDouble(out, tick.dt_s);
  out << ",\"tick\":" << tick.index << ",\"counters\":{";
  bool first = true;
  for (size_t i = 0; i < tick.snapshot.counters.size(); ++i) {
    const auto& [name, value] = tick.snapshot.counters[i];
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"value\":" << value << ",\"rate_per_s\":";
    AppendJsonDouble(out, tick.counter_rates[i].second);
    out << "}";
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : tick.snapshot.gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":";
    AppendJsonDouble(out, value);
  }
  out << "},\"histograms\":{";
  first = true;
  for (size_t i = 0; i < tick.snapshot.histograms.size(); ++i) {
    const auto& [name, h] = tick.snapshot.histograms[i];
    const HistogramSnapshot& delta = tick.histogram_deltas[i].second;
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":{\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"min\":" << h.min
        << ",\"max\":" << h.max
        << ",\"p50\":" << HistogramApproxQuantile(h, 0.5)
        << ",\"p99\":" << HistogramApproxQuantile(h, 0.99)
        << ",\"interval_count\":" << delta.count
        << ",\"interval_p50\":" << HistogramApproxQuantile(delta, 0.5)
        << ",\"interval_p99\":" << HistogramApproxQuantile(delta, 0.99)
        << "}";
  }
  out << "},\"series\":{";
  first = true;
  for (const auto& [name, count] : tick.snapshot.series_counts) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << count;
  }
  out << "}}";
  return out.str();
}

}  // namespace

Status WriteTraceJson(const std::string& path) {
  return WriteStringToFile(path, TraceToJson());
}

Status WriteMetricsJson(const std::string& path) {
  return WriteStringToFile(path, MetricsToJson());
}

Status WriteMetricsPrometheus(const std::string& path) {
  return WriteStringToFileAtomic(path, MetricsToPrometheus());
}

void InitObservabilityFromEnv() {
  ReinitLoggingFromEnv();
  const char* trace_env = std::getenv("MCOND_TRACE");
  if (trace_env != nullptr) {
    // Strict parse: only a real integer flips the tracer, so a typo like
    // MCOND_TRACE=yes (or an empty value) cannot silently misconfigure.
    char* end = nullptr;
    const long value = std::strtol(trace_env, &end, 10);
    if (end != trace_env && end != nullptr && *end == '\0') {
      EnableTracing(value != 0);
    }
  }
}

MetricsExporter::MetricsExporter(const MetricsExporterOptions& options)
    : options_(options) {}

MetricsExporter::~MetricsExporter() { Stop(); }

Status MetricsExporter::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) {
      return Status::FailedPrecondition("MetricsExporter already started");
    }
  }
  if (options_.interval_ms < 1) {
    return Status::InvalidArgument(
        "MetricsExporter interval must be >= 1 ms");
  }
  if (!options_.jsonl_path.empty()) {
    // Truncate on start: one exporter run = one timeline file.
    std::ofstream probe(options_.jsonl_path,
                        std::ios::binary | std::ios::trunc);
    if (!probe) {
      return Status::InvalidArgument("cannot open " + options_.jsonl_path +
                                     " for writing");
    }
  }
  if (!options_.prometheus_path.empty()) {
    const Status status = WriteMetricsPrometheus(options_.prometheus_path);
    if (!status.ok()) return status;
  }
  prev_ = MetricsRegistry::Global().Snapshot();
  prev_ts_us_ = MonotonicMicros();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    stopping_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
  MCOND_LOG(INFO) << "metrics exporter started (interval "
                  << options_.interval_ms << " ms"
                  << (options_.jsonl_path.empty()
                          ? ""
                          : ", jsonl " + options_.jsonl_path)
                  << (options_.prometheus_path.empty()
                          ? ""
                          : ", prometheus " + options_.prometheus_path)
                  << ")";
  return Status::Ok();
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = false;
  }
}

int64_t MetricsExporter::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tick_count_;
}

void MetricsExporter::Loop() {
  for (;;) {
    bool stop;
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop = cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.interval_ms),
                          [&] { return stopping_; });
    }
    // The stop tick flushes the final partial interval before joining.
    EmitTick();
    if (stop) return;
  }
}

void MetricsExporter::EmitTick() {
  MetricsTick tick;
  tick.ts_us = MonotonicMicros();
  tick.snapshot = MetricsRegistry::Global().Snapshot();
  tick.dt_s = static_cast<double>(tick.ts_us - prev_ts_us_) * 1e-6;
  const double dt = tick.dt_s > 0.0 ? tick.dt_s : 1e-9;

  // The registry only grows and snapshots iterate in name order, so the
  // previous snapshot's names are a sorted subset of the current ones;
  // instruments born this interval diff against a zero baseline.
  tick.counter_rates.reserve(tick.snapshot.counters.size());
  size_t j = 0;
  for (const auto& [name, value] : tick.snapshot.counters) {
    int64_t prev_value = 0;
    while (j < prev_.counters.size() && prev_.counters[j].first < name) ++j;
    if (j < prev_.counters.size() && prev_.counters[j].first == name) {
      prev_value = prev_.counters[j].second;
    }
    tick.counter_rates.emplace_back(
        name, static_cast<double>(value - prev_value) / dt);
  }
  tick.histogram_deltas.reserve(tick.snapshot.histograms.size());
  j = 0;
  for (const auto& [name, h] : tick.snapshot.histograms) {
    HistogramSnapshot prev_h;
    prev_h.min = h.min;
    prev_h.max = h.max;
    while (j < prev_.histograms.size() && prev_.histograms[j].first < name) {
      ++j;
    }
    if (j < prev_.histograms.size() && prev_.histograms[j].first == name) {
      prev_h = prev_.histograms[j].second;
    }
    tick.histogram_deltas.emplace_back(name,
                                       HistogramSnapshotDelta(h, prev_h));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    tick.index = tick_count_++;
  }

  if (!options_.jsonl_path.empty()) {
    std::ofstream out(options_.jsonl_path,
                      std::ios::binary | std::ios::app);
    if (out) {
      const std::string line = TickToJsonLine(tick);
      out.write(line.data(), static_cast<std::streamsize>(line.size()));
      out.put('\n');
    }
  }
  if (!options_.prometheus_path.empty()) {
    const Status status = WriteMetricsPrometheus(options_.prometheus_path);
    if (!status.ok()) {
      MCOND_LOG(WARN) << "metrics exporter: " << status.ToString();
    }
  }

  prev_ = std::move(tick.snapshot);
  prev_ts_us_ = tick.ts_us;
}

}  // namespace obs
}  // namespace mcond
