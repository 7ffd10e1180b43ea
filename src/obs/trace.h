#ifndef MCOND_OBS_TRACE_H_
#define MCOND_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// Scoped-span tracing.
///
///   {
///     obs::TraceSpan span("serve.session.compose");
///     ...work...
///   }  // span recorded here
///
/// Completed spans land in a process-global fixed-capacity ring buffer
/// (oldest events overwritten on overflow) and can be exported as Chrome
/// trace_event JSON — load the file in chrome://tracing or
/// https://ui.perfetto.dev. Each thread gets its own track (tid) and a
/// nesting depth maintained by the RAII spans.
///
/// Cross-thread request tracing: a span can participate in a *flow* — a
/// Chrome flow-event chain ("ph":"s"/"t"/"f") that draws an arrow between
/// spans on different threads sharing one flow id. Allocate an id with
/// NewTraceFlowId(), stamp the producing span with
/// SetFlow(id, FlowPhase::kStart), carry the id across the thread boundary
/// (e.g. inside a queued request), and stamp the consuming span with
/// FlowPhase::kEnd (or kStep for intermediate hops). The period a request
/// spends owned by no thread (queued) can additionally be rendered as a
/// Chrome async event pair via TraceAsyncBegin/TraceAsyncEnd with the same
/// id, which gets its own duration track in Perfetto.
///
/// Tracing is off by default. When disabled, constructing a TraceSpan is a
/// single relaxed atomic load — no clock read, no locks, no allocation —
/// unless `always_time` is set, which adds exactly one steady_clock read at
/// each end so callers can use the span itself as a stopwatch
/// (ElapsedMicros/ElapsedSeconds) whether or not tracing is on. The async
/// and flow helpers are likewise a single relaxed load when disabled.

namespace mcond {
namespace obs {

/// Role of a span within a cross-thread flow chain.
enum class FlowPhase : uint8_t {
  kNone = 0,
  kStart,  // "s": the flow arrow leaves this span
  kStep,   // "t": intermediate hop
  kEnd,    // "f": the flow arrow lands on this span
};

/// One completed event. `name` must point at storage that outlives the
/// program trace (string literals in practice — events do not copy).
struct TraceEvent {
  /// Complete spans ("ph":"X") vs async duration markers ("b"/"e").
  enum class Kind : uint8_t { kSpan = 0, kAsyncBegin, kAsyncEnd };

  const char* name = "";
  /// Start, microseconds on the shared MonotonicMicros clock. For async
  /// begin/end events this is the instant the marker fired.
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  /// Thread track: 1-based, in order of first span per thread.
  uint32_t tid = 0;
  /// Nesting depth on that thread at the time the span opened (0 = root).
  uint32_t depth = 0;
  /// Flow / async correlation id; 0 = not part of any flow.
  uint64_t flow_id = 0;
  FlowPhase flow = FlowPhase::kNone;
  Kind kind = Kind::kSpan;
};

void EnableTracing(bool enabled);
bool TracingEnabled();
/// Drops all recorded events (the ring restarts empty).
void ClearTrace();
/// Events recorded since the last ClearTrace (pre-overflow count).
uint64_t TraceEventsRecorded();
/// Events dropped to overflow since the last ClearTrace. Cumulative drops
/// across the process lifetime are also surfaced as the
/// `mcond.trace.dropped` counter in the metrics registry, and the first
/// dropped event emits a one-shot MCOND_LOG(WARN).
uint64_t TraceEventsDropped();

/// Process-unique nonzero id for a new flow / async pair. Cheap (one
/// relaxed fetch_add); callers normally guard on TracingEnabled() and pass
/// 0 around when tracing is off.
uint64_t NewTraceFlowId();

/// Records an async duration marker ("ph":"b"/"e" with `id`) on the
/// calling thread's track. Begin/end may fire on different threads — the
/// pair is joined by id, which is what makes it useful for queue residency.
/// No-ops (single relaxed load) when tracing is disabled.
void TraceAsyncBegin(const char* name, uint64_t id);
void TraceAsyncEnd(const char* name, uint64_t id);

/// Copies the retained events out of the ring, oldest first. Concurrent
/// writers may race individual slots; snapshot from a quiesced process
/// (end of run, or tests) for exact results.
std::vector<TraceEvent> TraceSnapshot();

/// Chrome trace_event JSON ("ph":"X" complete events, ts/dur in µs, plus
/// "s"/"t"/"f" flow events and "b"/"e" async events for stamped spans).
std::string TraceToJson();

class TraceSpan {
 public:
  /// `always_time`: read the clock even when tracing is disabled, so
  /// Elapsed* work unconditionally (used where timing feeds results).
  explicit TraceSpan(const char* name, bool always_time = false);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Joins this span into flow `id` with the given role. No-op when the
  /// span is not recording (tracing disabled) or id == 0.
  void SetFlow(uint64_t id, FlowPhase phase) {
    if (recording_ && id != 0) {
      flow_id_ = id;
      flow_ = phase;
    }
  }

  /// Microseconds since construction. 0 if neither tracing nor
  /// always_time armed the clock.
  uint64_t ElapsedMicros() const;
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) * 1e-6;
  }

 private:
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  bool timing_;    // Clock was read at construction.
  bool recording_; // Event will be appended to the ring at destruction.
  uint32_t depth_ = 0;
  uint64_t flow_id_ = 0;
  FlowPhase flow_ = FlowPhase::kNone;
};

}  // namespace obs
}  // namespace mcond

/// Scoped span with a unique local name: MCOND_TRACE_SPAN("stage");
#define MCOND_TRACE_SPAN_CONCAT2(a, b) a##b
#define MCOND_TRACE_SPAN_CONCAT(a, b) MCOND_TRACE_SPAN_CONCAT2(a, b)
#define MCOND_TRACE_SPAN(name)                              \
  ::mcond::obs::TraceSpan MCOND_TRACE_SPAN_CONCAT(          \
      mcond_trace_span_, __LINE__)(name)

#endif  // MCOND_OBS_TRACE_H_
