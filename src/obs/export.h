#ifndef MCOND_OBS_EXPORT_H_
#define MCOND_OBS_EXPORT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "core/status.h"
#include "obs/metrics.h"

/// File export for the tracer and the metrics registry, plus one-call env
/// initialization — the glue the CLI and benches use:
///
///   obs::InitObservabilityFromEnv();        // MCOND_LOG_LEVEL, MCOND_TRACE
///   ...run...
///   obs::WriteTraceJson("trace.json");      // open in chrome://tracing
///   obs::WriteMetricsJson("metrics.json");
///   obs::WriteMetricsPrometheus("metrics.prom");
///
/// For continuous telemetry under load, MetricsExporter snapshots the
/// registry on a background thread every interval: each tick appends one
/// JSON line (a time-series point with per-counter delta rates and
/// per-histogram cumulative AND per-interval quantiles) to an append-only
/// JSONL file, and/or rewrites a Prometheus text-exposition file in place
/// for scrapers. `mcond_cli --metrics_export_path/--metrics_export_interval_ms`
/// drives it.

namespace mcond {
namespace obs {

/// Writes the current trace ring as Chrome trace_event JSON.
Status WriteTraceJson(const std::string& path);

/// Writes a snapshot of the global metrics registry as JSON.
Status WriteMetricsJson(const std::string& path);

/// Writes a snapshot of the global metrics registry in Prometheus text
/// exposition format (dots mapped to underscores, pow2 histogram buckets
/// as cumulative `_bucket{le="..."}` samples).
Status WriteMetricsPrometheus(const std::string& path);

/// Applies MCOND_LOG_LEVEL / MCOND_VLOG to the logger and MCOND_TRACE to
/// the tracer. MCOND_TRACE must parse as an integer to take effect
/// (nonzero enables, zero disables); unset or unparseable values leave the
/// current tracing state untouched.
void InitObservabilityFromEnv();

struct MetricsExporterOptions {
  /// Append-only JSONL time series; one line per tick. "" disables.
  std::string jsonl_path;
  /// Prometheus text file, atomically rewritten each tick. "" disables.
  std::string prometheus_path;
  int interval_ms = 1000;
};

/// Background thread that periodically snapshots the global metrics
/// registry. Start() spawns the thread; Stop() (or destruction) takes one
/// final snapshot so the last partial interval is never lost, then joins.
/// Thread-safe with concurrent metric updates — snapshots use the
/// registry's own locking and the instruments' relaxed atomics.
class MetricsExporter {
 public:
  explicit MetricsExporter(const MetricsExporterOptions& options);
  ~MetricsExporter();
  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Opens the output files and spawns the exporter thread. Fails
  /// (InvalidArgument) if a configured path cannot be opened, or
  /// (FailedPrecondition) if already started.
  Status Start();

  /// Final tick + thread join. Idempotent; implied by destruction.
  void Stop();

  /// Ticks emitted so far (including the final Stop() tick).
  int64_t ticks() const;

 private:
  void Loop();
  void EmitTick();

  MetricsExporterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stopping_ = false;
  std::thread thread_;

  // Exporter-thread state (no locking needed once running).
  MetricsSnapshot prev_;
  uint64_t prev_ts_us_ = 0;
  int64_t tick_count_ = 0;  // read under mu_ by ticks()
};

}  // namespace obs
}  // namespace mcond

#endif  // MCOND_OBS_EXPORT_H_
