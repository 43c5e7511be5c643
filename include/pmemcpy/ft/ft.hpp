// pmemcpy::ft — the fault-tolerance vocabulary shared by every layer of the
// self-healing data path (DESIGN.md §10).
//
// The layer stack uses it as follows:
//   * pmem::Device injects seed-deterministic transient faults and retries
//     them under an ft::RetryPolicy, charging each backoff to the simulated
//     clock;
//   * obj::Pool records sticky-bad ranges in a persistent CRC-protected
//     quarantine table and reports table operations as ft::Status;
//   * PMEM retries faulted puts after quarantining the failing range,
//     relocates entries off bad media in repair(), and transitions to
//     ft::Health::kDegraded (read-only) when healing is exhausted —
//     surfacing damage as a typed DegradedError instead of corrupt bytes.
//
// Everything here is a plain value type: no clocks, no devices, no
// persistent state, so any layer can depend on it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace pmemcpy::ft {

/// Why an operation could not be completed normally.
enum class ErrorCode : int {
  kOk = 0,
  kRetryExhausted,  ///< transient faults persisted past the retry budget
  kMediaFailed,     ///< sticky-bad media: writes to the range keep failing
  kQuarantineFull,  ///< the persistent bad-range table has no free slot
  kDegraded,        ///< pool is in degraded read-only mode; writes refused
  kDamagedKey,      ///< this entry's bytes are unrecoverable (typed, not garbage)
};

[[nodiscard]] const char* error_code_name(ErrorCode c) noexcept;

/// Success-or-typed-error result.  [[nodiscard]] so a dropped Status is a
/// compile error in-tree (and lint rule 5 greps for discards in src/).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string detail)
      : code_(code), detail_(std::move(detail)) {}

  static Status ok() { return {}; }

  [[nodiscard]] bool is_ok() const noexcept { return code_ == ErrorCode::kOk; }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }
  [[nodiscard]] std::string to_string() const {
    std::string s = error_code_name(code_);
    if (!detail_.empty()) s += ": " + detail_;
    return s;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string detail_;
};

/// Retry/backoff schedule applied at the device-access boundary.  Backoff is
/// charged to the *simulated* clock (sim::Charge::kRetryBackoff), so retries
/// are deterministic and visible in trace spans like any other cost.
struct RetryPolicy {
  /// Attempts per operation including the first (1 = no retry).
  int max_attempts = 6;

  /// Backoff charged before retry @p n (1-based): 250 ns, doubling per
  /// retry.
  [[nodiscard]] static double backoff_for(int n) noexcept {
    double d = 250e-9;
    for (int i = 1; i < n; ++i) d *= 2.0;
    return d;
  }
};

/// Pool health, ordered so the cluster-wide state is the max across ranks
/// (par::agree_health merges with allreduce_max).
enum class Health : int {
  kHealthy = 0,
  kDegraded = 1,  ///< read-only: healthy entries load, writes are refused
};

[[nodiscard]] const char* health_name(Health h) noexcept;

/// Thrown where an exception is the only signalling channel (the templated
/// PMEM store/load API); carries the same typed Status a non-throwing path
/// would return.
struct DegradedError : std::runtime_error {
  explicit DegradedError(Status s)
      : std::runtime_error("pmemcpy: " + s.to_string()),
        status(std::move(s)) {}

  Status status;
};

inline const char* error_code_name(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kRetryExhausted: return "retry budget exhausted";
    case ErrorCode::kMediaFailed: return "media failed";
    case ErrorCode::kQuarantineFull: return "quarantine table full";
    case ErrorCode::kDegraded: return "pool degraded (read-only)";
    case ErrorCode::kDamagedKey: return "entry damaged beyond repair";
  }
  return "unknown";
}

inline const char* health_name(Health h) noexcept {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
  }
  return "unknown";
}

}  // namespace pmemcpy::ft
