#ifndef PROVDB_COMMON_RESULT_H_
#define PROVDB_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/status.h"

namespace provdb {

namespace internal {
/// Prints `status` and aborts: what `Result::value()` does on an error
/// result, in every build type. Out of line so the check costs each
/// accessor one compare and a cold call.
[[noreturn]] void ResultValueFailed(const Status& status);
}  // namespace internal

/// Holds either a value of type `T` or a non-OK Status explaining why the
/// value is absent. Mirrors absl::StatusOr / arrow::Result.
///
///   Result<int> r = ParsePort(text);
///   if (!r.ok()) return r.status();
///   int port = r.value();
///
/// Like Status, the class is [[nodiscard]]: dropping a Result on the floor
/// silently discards both the value and the error that explains its
/// absence. Reading the value of an error result (`value()`, `*`, `->`)
/// prints the status and aborts, in Release builds too.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a failed result. An OK `status` holds no value to go
  /// with it, so it becomes an Internal error.
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(status.ok() ? Status::Internal(
                                  "Result constructed from an OK status")
                            : std::move(status)) {}

  /// Constructs a successful result holding `value`.
  Result(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Requires `ok()`; aborts with the status otherwise.
  const T& value() const& {
    if (!ok()) internal::ResultValueFailed(status_);
    return *value_;
  }
  T& value() & {
    if (!ok()) internal::ResultValueFailed(status_);
    return *value_;
  }
  T&& value() && {
    if (!ok()) internal::ResultValueFailed(status_);
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the held value, or `fallback` when this result is an error.
  T value_or(T fallback) const& { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Assigns the value of a `Result<T>` expression to `lhs`, returning the
/// status from the enclosing function on error.
#define PROVDB_CONCAT_INNER_(a, b) a##b
#define PROVDB_CONCAT_(a, b) PROVDB_CONCAT_INNER_(a, b)
#define PROVDB_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) {                                    \
    return tmp.status();                              \
  }                                                   \
  lhs = std::move(tmp).value()
#define PROVDB_ASSIGN_OR_RETURN(lhs, expr)                                  \
  PROVDB_ASSIGN_OR_RETURN_IMPL_(PROVDB_CONCAT_(provdb_result_, __LINE__),   \
                                lhs, expr)

}  // namespace provdb

#endif  // PROVDB_COMMON_RESULT_H_
