#ifndef MCOND_CORE_STATUS_H_
#define MCOND_CORE_STATUS_H_

#include <string>
#include <utility>

#include "core/logging.h"

namespace mcond {

/// Error categories for recoverable failures. Mirrors the RocksDB/Abseil
/// convention: library entry points that can fail on bad input return a
/// Status (or StatusOr<T>) instead of throwing; internal invariant violations
/// use MCOND_CHECK and abort.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotFound = 4,
  kInternal = 5,
  /// A bounded resource ran out (e.g. a full request queue); retrying
  /// later may succeed.
  kResourceExhausted = 6,
  /// The service is not taking work (e.g. shut down or draining).
  kUnavailable = 7,
};

/// A lightweight success-or-error result. Cheap to copy on the success path
/// (no allocation); carries a message only on error.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: shape mismatch".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing value() on an
/// error aborts (programming error), so callers must test ok() first unless
/// the call site guarantees success.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or a Status keeps call sites terse:
  ///   StatusOr<Tensor> F() { if (bad) return Status::InvalidArgument(...);
  ///                          return tensor; }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::Ok()), value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    MCOND_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    MCOND_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return value_;
  }
  T& value() & {
    MCOND_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return value_;
  }
  T&& value() && {
    MCOND_CHECK(ok()) << "value() on error StatusOr: " << status_.ToString();
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

/// Propagates an error Status from an expression to the caller.
#define MCOND_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::mcond::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace mcond

#endif  // MCOND_CORE_STATUS_H_
