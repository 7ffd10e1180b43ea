#include "obs/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace mcond {
namespace obs {

namespace {

// Minimum emitted level / verbosity, relaxed atomics so the disabled path
// is a single load. Initialized from the environment exactly once.
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<int> g_verbosity{0};
std::once_flag g_env_once;

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}

LogSink& SinkSlot() {
  static LogSink sink;  // Empty function => default stderr sink.
  return sink;
}

/// Default sink: "[L  123456us file.cc:42] message". Uses stdio rather
/// than iostreams, keeping src/ inside the no-direct-iostream lint.
void DefaultSink(const LogRecord& r) {
  std::fprintf(stderr, "[%c %10llu" "us %s:%d] %s\n",
               LogLevelName(r.level)[0],
               static_cast<unsigned long long>(r.micros), r.file, r.line,
               r.message.c_str());
}

void EnsureEnvInit() {
  std::call_once(g_env_once, [] { ReinitLoggingFromEnv(); });
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

uint64_t MonotonicMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

LogLevel MinLogLevel() {
  EnsureEnvInit();
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

int VerbosityLevel() {
  EnsureEnvInit();
  return g_verbosity.load(std::memory_order_relaxed);
}

bool VlogEnabled(int n) {
  return n <= VerbosityLevel() && LogEnabled(LogLevel::kInfo);
}

void SetMinLogLevel(LogLevel level) {
  EnsureEnvInit();
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void SetLogSink(LogSink sink) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  SinkSlot() = std::move(sink);
}

void ReinitLoggingFromEnv() {
  const char* level_env = std::getenv("MCOND_LOG_LEVEL");
  LogLevel level = LogLevel::kInfo;
  if (level_env != nullptr) ParseLogLevel(level_env, &level);
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
  // Verbosity below the 0 default would also suppress explicitly-enabled
  // MCOND_VLOG(0) statements; clamp so a stray "-1" keeps the default.
  const char* vlog_env = std::getenv("MCOND_VLOG");
  int verbosity = vlog_env != nullptr ? std::atoi(vlog_env) : 0;
  if (verbosity < 0) verbosity = 0;
  g_verbosity.store(verbosity, std::memory_order_relaxed);
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

bool ParseLogLevel(const std::string& text, LogLevel* out) {
  std::string t;
  t.reserve(text.size());
  for (char c : text) t.push_back(AsciiLower(c));
  if (t == "debug" || t == "0") {
    *out = LogLevel::kDebug;
  } else if (t == "info" || t == "1") {
    *out = LogLevel::kInfo;
  } else if (t == "warn" || t == "warning" || t == "2") {
    *out = LogLevel::kWarning;
  } else if (t == "error" || t == "3") {
    *out = LogLevel::kError;
  } else if (t == "off" || t == "none" || t == "4") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

namespace log_internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line,
                       int verbosity)
    : level_(level), file_(file), line_(line), verbosity_(verbosity) {}

LogMessage::~LogMessage() {
  LogRecord record;
  record.level = level_;
  record.file = file_;
  record.line = line_;
  record.verbosity = verbosity_;
  record.micros = MonotonicMicros();
  record.message = stream_.str();
  std::lock_guard<std::mutex> lock(SinkMutex());
  const LogSink& sink = SinkSlot();
  if (sink) {
    sink(record);
  } else {
    DefaultSink(record);
  }
}

}  // namespace log_internal
}  // namespace obs
}  // namespace mcond
