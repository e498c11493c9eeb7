#ifndef AUTOTEST_UTIL_STATUS_H_
#define AUTOTEST_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.h"

// Structured, exception-free error propagation for untrusted-input surfaces
// (CSV ingestion, rule-file loading, the CLI recipe loader). The library
// stays exception-free: recoverable failures travel as `Status` / `Result<T>`
// values with an error code, a human-readable message and a chain of context
// frames ("while loading rules from rules.sdc"); programmer errors keep
// aborting through AT_CHECK (see util/check.h and DESIGN.md §4c for the
// contract of which is which).

namespace autotest::util {

enum class StatusCode : int {
  kOk = 0,
  /// The caller passed something structurally unacceptable (bad options,
  /// unsupported file version, out-of-range parameter).
  kInvalidArgument = 1,
  /// A named resource (file, rule id) does not exist.
  kNotFound = 2,
  /// Input bytes are corrupt or truncated — the payload itself is damaged.
  kDataLoss = 3,
  /// The operating system failed us: open/read/write/rename errors.
  kIoError = 4,
  /// An input exceeds a configured resource limit (field/row byte caps) or
  /// an injected allocation fault fired.
  kResourceExhausted = 5,
  /// The operation cannot run in the current state.
  kFailedPrecondition = 6,
  /// A bug on our side surfaced as a recoverable error.
  kInternal = 7,
  /// A per-request time budget expired before the work finished. Not
  /// retryable (re-running the same work under the same budget expires
  /// again); the serving tier degrades to a partial report instead.
  kDeadlineExceeded = 8,
};

/// Stable upper-case name for diagnostics, e.g. "DATA_LOSS".
std::string_view StatusCodeName(StatusCode code);

/// Inverse of StatusCodeName: parses a stable upper-case name back to its
/// code (used by degraded-mode provenance in rule-file recipes). Returns
/// nullopt for unknown names.
std::optional<StatusCode> StatusCodeFromName(std::string_view name);

/// A success-or-error value. Default construction and `Status::Ok()` are OK;
/// error states carry a code, message, and optional context chain. Copyable
/// and cheap to move; an OK status allocates nothing.
///
/// The class itself is [[nodiscard]]: dropping a returned Status on the
/// floor silently swallows the diagnostic the whole error layer exists to
/// carry, so builds treat it as an error (-Werror=unused-result). An
/// intentional discard must say so with `(void)`.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  const std::vector<std::string>& context() const { return context_; }

  /// Appends a context frame, innermost first. Frames read as gerunds:
  /// `st.WithContext("parsing rules from " + path)` renders as
  /// "  while parsing rules from rules.sdc". No-op on OK statuses.
  Status& WithContext(std::string frame) & {
    if (!ok()) context_.push_back(std::move(frame));
    return *this;
  }
  Status&& WithContext(std::string frame) && {
    return std::move(this->WithContext(std::move(frame)));
  }

  /// "DATA_LOSS: rule line 7: field 'd_in' is not a number
  ///    while loading rules from rules.sdc"
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::vector<std::string> context_;  // innermost frame first
};

/// Error constructors, one per code.
[[nodiscard]] Status InvalidArgumentError(std::string message);
[[nodiscard]] Status NotFoundError(std::string message);
[[nodiscard]] Status DataLossError(std::string message);
[[nodiscard]] Status IoError(std::string message);
[[nodiscard]] Status ResourceExhaustedError(std::string message);
[[nodiscard]] Status FailedPreconditionError(std::string message);
[[nodiscard]] Status InternalError(std::string message);
[[nodiscard]] Status DeadlineExceededError(std::string message);

/// A value-or-error. Implicitly constructible from either a `T` or a
/// non-OK `Status`, so functions can `return value;` and
/// `return DataLossError(...);` symmetrically. Accessing `value()` on an
/// error state is a programmer error and aborts (AT_CHECK).
///
/// [[nodiscard]] for the same reason as Status: a discarded Result<T> is
/// both a lost value and a lost diagnostic.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): by-design implicit.
  Result(Status status) : status_(std::move(status)) {
    AT_CHECK_MSG(!status_.ok(), "Result constructed from OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AT_CHECK_MSG(ok(), "Result::value() on error status");
    return *value_;
  }
  T& value() & {
    AT_CHECK_MSG(ok(), "Result::value() on error status");
    return *value_;
  }
  T&& value() && {
    AT_CHECK_MSG(ok(), "Result::value() on error status");
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // OK iff value_ holds
  std::optional<T> value_;
};

}  // namespace autotest::util

/// Propagates a non-OK Status to the caller.
#define AT_RETURN_IF_ERROR(expr)              \
  do {                                        \
    ::autotest::util::Status at_st_ = (expr); \
    if (!at_st_.ok()) return at_st_;          \
  } while (0)

#define AT_STATUS_CONCAT_INNER(a, b) a##b
#define AT_STATUS_CONCAT(a, b) AT_STATUS_CONCAT_INNER(a, b)

/// `AT_ASSIGN_OR_RETURN(auto table, TryParseCsv(text));` — unwraps a Result
/// into `lhs` or propagates its Status.
#define AT_ASSIGN_OR_RETURN(lhs, expr)                           \
  AT_ASSIGN_OR_RETURN_IMPL(AT_STATUS_CONCAT(at_res_, __LINE__), \
                           lhs, expr)
#define AT_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)  \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

#endif  // AUTOTEST_UTIL_STATUS_H_
