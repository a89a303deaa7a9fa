// Structured error taxonomy for the experiment paths.
//
// FLEXNETS_CHECK (common/check.hpp) stays the right tool for *internal
// invariants*: a failure means the engine itself is broken. Status is for
// *expected* failures of messy, at-scale operation — malformed input files,
// exhausted solver budgets, partitioned instances — which a sweep must
// survive, record, and route around instead of dying. Input boundaries
// (topo/io, fault plan loading) return StatusOr<T>; long-running solves
// return a result carrying a StatusCode; the grid runner captures any
// escaping failure into the owning point's record (sweep::run_grid, via
// sweep::contain_point).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace flexnets {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidInput,      // malformed or inconsistent user-supplied input
  kBudgetExhausted,   // a cooperative budget (phases, events, cancel) hit;
                      // partial results are valid lower bounds / truncated
  kNonConverged,      // an iterative solve hit its internal safety cap
  kPartitioned,       // required endpoints are mutually unreachable
  kInternal,          // an engine invariant failed (captured CheckFailure
                      // or unexpected exception)
};

// Stable wire names ("ok", "invalid-input", ...): used by the sweep
// journal and diagnostics. Round-trips through status_code_from_name.
const char* status_code_name(StatusCode code) noexcept;
std::optional<StatusCode> status_code_from_name(const std::string& name);

// Retry classification, table-driven per code (status.cpp holds the
// table). This is the single retry predicate of the sweep orchestrator
// (src/sweep): only kInternal is retryable — a crash, an escaped check,
// or an unexpected exception may be environmental (OOM kill, poisoned
// worker state) and deserves a fresh worker. Everything else is a
// deterministic function of the input: kInvalidInput and kPartitioned
// would fail identically on any worker, and kBudgetExhausted /
// kNonConverged already carry their valid partial result, so retrying
// only burns the budget again.
[[nodiscard]] bool status_code_retryable(StatusCode code) noexcept;

// The class itself is [[nodiscard]]: any call returning a Status (or a
// StatusOr below) that drops the result is a compiler warning — the
// compile-time backstop to flexnets_analyze's status-discipline pass
// (which additionally sees discards the type attribute cannot, e.g.
// `.value()` with no dominating ok() check).
class [[nodiscard]] Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

  // "ok" or "<code-name>: <message>".
  [[nodiscard]] std::string to_string() const;

  // status_code_retryable(code()): whether a sweep orchestrator should
  // rerun the operation on a fresh worker rather than quarantine it.
  [[nodiscard]] bool retryable() const noexcept {
    return status_code_retryable(code_);
  }

  bool operator==(const Status&) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Streaming factories, mirroring FLEXNETS_CHECK's message style:
//   return invalid_input_error("line ", line_no, ": bad link");
template <typename... Ts>
Status invalid_input_error(const Ts&... parts) {
  return {StatusCode::kInvalidInput, detail::format_parts(parts...)};
}
template <typename... Ts>
Status budget_exhausted_error(const Ts&... parts) {
  return {StatusCode::kBudgetExhausted, detail::format_parts(parts...)};
}
template <typename... Ts>
Status non_converged_error(const Ts&... parts) {
  return {StatusCode::kNonConverged, detail::format_parts(parts...)};
}
template <typename... Ts>
Status partitioned_error(const Ts&... parts) {
  return {StatusCode::kPartitioned, detail::format_parts(parts...)};
}
template <typename... Ts>
Status internal_error(const Ts&... parts) {
  return {StatusCode::kInternal, detail::format_parts(parts...)};
}

// Exception carrier for containment boundaries: code that cannot return a
// Status through its signature raises one via throw_status, and
// sweep::contain_point (sweep/grid.hpp) catches it back into the owning
// grid point's record. The throw itself lives in status.cpp so the
// hard-exit lint keeps `throw` out of engine code.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

// Raises StatusError(status). Precondition: !status.ok().
[[noreturn]] void throw_status(Status status);

// A value or a non-ok Status. Accessing value() on an error applies the
// FLEXNETS_CHECK policy (abort in binaries, CheckFailure in tests).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    FLEXNETS_CHECK(!status_.ok(),
                   "StatusOr constructed from an ok Status without a value");
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : value_(std::move(value)) {}

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] const T& value() const& {
    check_has_value();
    return *value_;
  }
  [[nodiscard]] T& value() & {
    check_has_value();
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    check_has_value();
    return *std::move(value_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

 private:
  void check_has_value() const {
    FLEXNETS_CHECK(value_.has_value(), "StatusOr accessed without a value: ",
                   status_.to_string());
  }

  Status status_;  // ok iff value_ engaged
  std::optional<T> value_;
};

}  // namespace flexnets
