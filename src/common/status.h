// Status / Result error-handling primitives (Arrow/RocksDB style).
//
// Core library paths do not throw; fallible operations return Status or
// Result<T> and callers propagate with PRIVHP_RETURN_NOT_OK /
// PRIVHP_ASSIGN_OR_RETURN (see common/macros.h).

#ifndef PRIVHP_COMMON_STATUS_H_
#define PRIVHP_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace privhp {

/// \brief Machine-readable category for a Status.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotImplemented = 4,
  kInternal = 5,
  kIOError = 6,
};

/// \brief The largest StatusCode: move it when a code is added after it.
/// A code byte off the wire above it is malformed (ParseResponse).
inline constexpr StatusCode kLastStatusCode = StatusCode::kIOError;

/// \brief Human-readable name of a StatusCode ("OK", "Invalid argument", ...).
std::string StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: a code plus an optional message.
///
/// The OK state carries no allocation; error states allocate a small state
/// block. Status is cheap to move and to test for success.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// Constructs a status with \p code and diagnostic \p msg.
  Status(StatusCode code, std::string msg);

  /// \brief Returns the OK status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }

  /// \brief True iff the status is OK.
  bool ok() const { return state_ == nullptr; }

  /// \brief The status code (kOk when ok()).
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// \brief The diagnostic message (empty when ok()).
  const std::string& message() const;

  /// \brief "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<const State> state_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// \brief Either a value of type T or an error Status.
///
/// Mirrors arrow::Result. Accessors ValueOrDie()/operator* assume ok();
/// violating that aborts in debug builds and is undefined in release, so
/// callers should check ok() or use the propagation macros.
template <typename T>
class Result {
 public:
  /// Constructs an errored result; \p status must not be OK.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : repr_(std::move(status)) {}

  /// Constructs a successful result holding \p value.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : repr_(std::move(value)) {}

  /// \brief True iff a value is held.
  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// \brief The error status, or OK when a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  /// \brief Mutable access to the held value; requires ok().
  T& ValueOrDie() & { return std::get<T>(repr_); }
  const T& ValueOrDie() const& { return std::get<T>(repr_); }
  T&& ValueOrDie() && { return std::move(std::get<T>(repr_)); }

  /// \brief Moves the value out, or returns \p alternative on error.
  T ValueOr(T alternative) && {
    return ok() ? std::move(std::get<T>(repr_)) : std::move(alternative);
  }

  T& operator*() & { return ValueOrDie(); }
  const T& operator*() const& { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }

 private:
  std::variant<Status, T> repr_;
};

}  // namespace privhp

#endif  // PRIVHP_COMMON_STATUS_H_
