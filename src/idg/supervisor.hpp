// Resilient execution supervisor (DESIGN.md §12).
//
// `ResilientBackend` wraps a GridderBackend (make_backend wraps the
// synchronous Processor) and turns the fail-fast error contract of §11 —
// first stage failure aborts the run — into policy-driven recovery:
//
//   * retry     — a StageFailure attributed to a work group re-runs the
//                 whole call with that group still active, after a seeded,
//                 bounded backoff. Work groups are pure functions of their
//                 inputs, so a retry of a group that did not fault is
//                 bit-identical to its first attempt (pinned by
//                 test_supervisor.cpp).
//   * quarantine— a group that keeps failing after max_attempts_per_group
//                 attempts is masked out via RunControl::skip_groups and
//                 the run completes without it: partial-result semantics
//                 identical to BadSamplePolicy::kSkipWorkGroup, reported
//                 through MetricsSink::record_recovery and the
//                 RecoveryReport.
//   * deadline  — a CancelledError is never retried: cancellation is
//                 final and rethrows immediately.
//
// Every attempt executes into a scratch copy of the caller's buffer and
// copies back only on success, so a half-finished failed attempt can never
// double-accumulate into the grid (or leave partially-predicted
// visibilities behind). The scratch starts as a copy — not zeros — so the
// successful attempt's result is bit-identical (including signed zeros) to
// an unsupervised run writing the caller's buffer directly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "idg/backend.hpp"
#include "obs/metrics.hpp"

namespace idg {

namespace stage {
inline constexpr const char* kSupervisor = obs::kSupervisorStage;
}  // namespace stage

// SupervisorConfig (the recovery policy) is defined in idg/backend.hpp so
// BackendOptions can embed it; it is re-exported here transitively.

/// One quarantined work group, for the caller-facing report.
struct QuarantinedGroup {
  std::int64_t group = -1;
  std::uint32_t attempts = 0;   ///< failed attempts before quarantine
  std::string last_error;       ///< what() of the final failure
};

/// What the supervisor did across the calls made so far (reset_report()
/// clears it; tests read it between runs).
struct RecoveryReport {
  /// Groups that failed at least once but eventually succeeded on retry.
  std::uint64_t retried_work_groups = 0;
  std::vector<QuarantinedGroup> quarantined;

  bool clean() const {
    return retried_work_groups == 0 && quarantined.empty();
  }
};

/// GridderBackend decorator applying the recovery policy above. Thread
/// compatibility matches the wrapped backend (one call at a time — the
/// retry bookkeeping is per call; only the accumulated report is shared
/// across calls, under a mutex).
class ResilientBackend final : public GridderBackend {
 public:
  explicit ResilientBackend(std::unique_ptr<GridderBackend> inner,
                            SupervisorConfig config = SupervisorConfig{});

  std::string name() const override { return "resilient"; }
  const Parameters& parameters() const override {
    return inner_->parameters();
  }
  const SupervisorConfig& config() const { return config_; }

  /// Copy of the accumulated recovery report.
  RecoveryReport report() const;
  void reset_report();

  using GridderBackend::grid;
  using GridderBackend::degrid;
  void grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
            ArrayView<const Visibility, 3> visibilities, FlagView flags,
            ArrayView<const Jones, 4> aterms, ArrayView<cfloat, 3> grid,
            obs::MetricsSink& sink, const RunControl& ctl) const override;
  void degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
              ArrayView<const cfloat, 3> grid, FlagView flags,
              ArrayView<const Jones, 4> aterms,
              ArrayView<Visibility, 3> visibilities, obs::MetricsSink& sink,
              const RunControl& ctl) const override;

 private:
  template <typename Attempt>
  void supervise(const Plan& plan, obs::MetricsSink& sink,
                 const RunControl& ctl, const char* what,
                 Attempt&& attempt) const;

  std::unique_ptr<GridderBackend> inner_;
  SupervisorConfig config_;

  // The report accumulates across calls. The GridderBackend interface is
  // const, hence mutable + mutex.
  mutable std::mutex mutex_;
  mutable RecoveryReport report_;
};

/// Convenience factory mirroring make_backend(): wraps `inner` in a
/// ResilientBackend.
std::unique_ptr<GridderBackend> make_resilient_backend(
    std::unique_ptr<GridderBackend> inner,
    SupervisorConfig config = SupervisorConfig{});

}  // namespace idg
