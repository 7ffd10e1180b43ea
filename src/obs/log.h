#ifndef MCOND_OBS_LOG_H_
#define MCOND_OBS_LOG_H_

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

/// Leveled structured logging.
///
///   MCOND_LOG(INFO) << "round " << r << " loss " << loss;
///   MCOND_VLOG(2) << "detail only shown at verbosity >= 2";
///
/// Levels: DEBUG < INFO < WARN < ERROR. The minimum emitted level comes
/// from the MCOND_LOG_LEVEL environment variable ("debug", "info", "warn",
/// "error", "off", or 0-4; default "info") and can be overridden with
/// SetMinLogLevel. MCOND_VLOG(n) records are emitted at INFO when
/// n <= MCOND_VLOG (default 0).
///
/// Records go to a pluggable sink (default: stderr, one line per record).
/// The disabled path evaluates only an atomic load and never constructs the
/// message stream, so logging below the threshold is near-free.

namespace mcond {
namespace obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// One fully formed log entry handed to the sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";
  int line = 0;
  /// Verbosity of an MCOND_VLOG(n) record; 0 for plain MCOND_LOG.
  int verbosity = 0;
  /// Monotonic microseconds since process start (same clock as the tracer).
  uint64_t micros = 0;
  std::string message;
};

using LogSink = std::function<void(const LogRecord&)>;

/// Monotonic microseconds since the first observability call in this
/// process. Shared by log records and trace events so they line up.
uint64_t MonotonicMicros();

LogLevel MinLogLevel();
int VerbosityLevel();
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(MinLogLevel());
}
bool VlogEnabled(int n);

void SetMinLogLevel(LogLevel level);
/// Replaces the sink; pass nullptr to restore the default stderr sink.
void SetLogSink(LogSink sink);

/// Re-reads MCOND_LOG_LEVEL and MCOND_VLOG from the environment,
/// overwriting any programmatic overrides. Called once automatically on
/// first use; exposed for tests and for tools that mutate the environment.
void ReinitLoggingFromEnv();

/// "DEBUG", "INFO", "WARN", "ERROR", "OFF".
const char* LogLevelName(LogLevel level);

/// Parses "debug|info|warn|warning|error|off" (case-insensitive) or a
/// numeric 0-4. Returns false (and leaves *out alone) on anything else.
bool ParseLogLevel(const std::string& text, LogLevel* out);

namespace log_internal {

// Severity tokens for the MCOND_LOG(severity) macro argument.
inline constexpr LogLevel DEBUG = LogLevel::kDebug;
inline constexpr LogLevel INFO = LogLevel::kInfo;
inline constexpr LogLevel WARN = LogLevel::kWarning;
inline constexpr LogLevel WARNING = LogLevel::kWarning;
inline constexpr LogLevel ERROR = LogLevel::kError;

/// Accumulates one record via operator<< and hands it to the sink on
/// destruction (end of the full logging statement).
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, int verbosity = 0);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  int verbosity_;
  std::ostringstream stream_;
};

/// Lets the ternary in MCOND_LOG produce void on both branches (same glog
/// idiom as MCOND_CHECK in core/logging.h).
class LogVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace log_internal
}  // namespace obs
}  // namespace mcond

#define MCOND_LOG(severity)                                                \
  (!::mcond::obs::LogEnabled(::mcond::obs::log_internal::severity))        \
      ? static_cast<void>(0)                                               \
      : ::mcond::obs::log_internal::LogVoidify() &                         \
            ::mcond::obs::log_internal::LogMessage(                        \
                ::mcond::obs::log_internal::severity, __FILE__, __LINE__)  \
                .stream()

#define MCOND_VLOG(n)                                                     \
  (!::mcond::obs::VlogEnabled(n))                                         \
      ? static_cast<void>(0)                                              \
      : ::mcond::obs::log_internal::LogVoidify() &                        \
            ::mcond::obs::log_internal::LogMessage(                       \
                ::mcond::obs::LogLevel::kInfo, __FILE__, __LINE__, (n))   \
                .stream()

#endif  // MCOND_OBS_LOG_H_
