// Cooperative cancellation for long-running pipeline runs (DESIGN.md §12).
//
// A `CancelToken` carries a cancel flag plus an optional wall-clock
// deadline. Production code *polls* it at catalogued check sites — there is
// no preemption: a stage finishes the work item it is on, then the next
// check throws `CancelledError` and the normal error-propagation machinery
// (with_stage_context) unwinds the run within bounded time.
// CancelledError is deliberately a distinct type: the resilient supervisor
// (idg/supervisor.hpp) retries stage failures but treats cancellation as
// final, so a deadline abort is never "retried" into a longer run.
//
// `CancelScope` additionally registers the token in a small process-wide
// list for the duration of a run. That list exists for exactly one
// consumer: the fault-injection harness's `delay:<ms>` arms sleep in short
// slices and poll `any_cancel_requested()` between slices, so an injected
// slow stage cannot hold a deadline-aborted run hostage for the full delay
// (it un-wedges the deadline CI tests, see common/faultinject.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/error.hpp"

namespace idg {

// CancelledError — the exception check() throws — lives in
// common/error.hpp next to StageFailure so the error taxonomy is in one
// place (and with_stage_context can pass it through without including
// this header).

/// Cooperative cancellation flag with an optional deadline.
///
/// Thread-safe: any thread may request_cancel(); any number of threads may
/// poll cancelled()/check() concurrently. Not copyable or movable — share
/// it by pointer/reference (RunControl::cancel).
class CancelToken {
 public:
  /// A token that never expires on its own (cancel via request_cancel()).
  CancelToken() = default;

  /// A token whose check sites start throwing `deadline_ms` milliseconds
  /// from now (0 = no deadline, same as the default constructor).
  explicit CancelToken(std::uint32_t deadline_ms) {
    if (deadline_ms > 0) {
      has_deadline_ = true;
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
      deadline_ms_ = deadline_ms;
    }
  }

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation; every subsequent cancelled()/check() observes
  /// it. Idempotent.
  void request_cancel() { cancelled_.store(true, std::memory_order_release); }

  /// True once cancelled explicitly or past the deadline (latched: a
  /// deadline crossing is permanent even if the clock were to jump back).
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// Throws CancelledError naming the check site (and work group, when
  /// >= 0) if the token is cancelled; no-op otherwise. `site` follows the
  /// fault-injection site naming, e.g. "processor.grid.cancel".
  void check(const char* site, std::int64_t group = -1) const {
    if (!cancelled()) return;
    std::ostringstream oss;
    oss << "run cancelled at site '" << site << "'";
    if (group >= 0) oss << " (work group " << group << ")";
    if (has_deadline_) {
      oss << ": deadline of " << deadline_ms_ << " ms exceeded";
    } else {
      oss << ": cancellation requested";
    }
    throw CancelledError(oss.str());
  }

  bool has_deadline() const { return has_deadline_; }

 private:
  mutable std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::uint32_t deadline_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
};

/// RAII registration of a token in the process-wide cancel registry for
/// the duration of a run (see file comment: the registry exists so the
/// fault injector's delay sleeps stay interruptible).
class CancelScope {
 public:
  explicit CancelScope(const CancelToken& token);
  ~CancelScope();

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* token_;
};

/// True when any token currently registered via CancelScope is cancelled.
/// Used by interruptible sleeps (fault-injection delays, supervisor
/// backoff) that are not threaded a specific token.
bool any_cancel_requested();

}  // namespace idg
