#include "idg/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "obs/span.hpp"

namespace idg {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Planned samples covered by one work group (what a quarantine drops).
std::uint64_t group_samples(const Plan& plan, std::size_t g) {
  std::uint64_t samples = 0;
  for (const WorkItem& item : plan.work_group(g)) {
    samples += item.nr_visibilities();
  }
  return samples;
}

}  // namespace

ResilientBackend::ResilientBackend(std::unique_ptr<GridderBackend> inner,
                                   SupervisorConfig config)
    : inner_(std::move(inner)), config_(config) {
  IDG_CHECK(inner_ != nullptr, "ResilientBackend needs a backend to wrap");
  IDG_CHECK(config_.max_attempts_per_group >= 1,
            "max_attempts_per_group must be at least 1");
}

RecoveryReport ResilientBackend::report() const {
  std::lock_guard lock(mutex_);
  return report_;
}

void ResilientBackend::reset_report() {
  std::lock_guard lock(mutex_);
  report_ = RecoveryReport{};
}

template <typename Attempt>
void ResilientBackend::supervise(const Plan& plan, obs::MetricsSink& sink,
                                 const RunControl& ctl_in, const char* what,
                                 Attempt&& attempt) const {
  const Parameters& params = inner_->parameters();
  const std::uint32_t deadline_ms =
      config_.deadline_ms != 0 ? config_.deadline_ms : params.deadline_ms;
  // The supervisor owns the run's deadline token (unless the caller passed
  // one): backoff sleeps below then count against the same deadline the
  // executors poll.
  const ScopedRunControl scoped(ctl_in, deadline_ms);
  const RunControl& base = scoped.ctl();

  const std::size_t nr_groups = plan.nr_work_groups();
  std::vector<std::uint8_t> skip(nr_groups, 0);
  for (std::size_t g = 0; g < nr_groups; ++g) {
    if (base.group_skipped(g)) skip[g] = 1;
  }
  std::vector<std::uint32_t> failures(nr_groups, 0);
  std::vector<QuarantinedGroup> quarantined_now;

  // Hard attempt bound: by default every group may exhaust its attempt
  // budget — but nothing can loop forever.
  const std::uint64_t max_attempts =
      config_.max_run_attempts != 0
          ? config_.max_run_attempts
          : static_cast<std::uint64_t>(nr_groups) *
                    config_.max_attempts_per_group + 1;

  const auto commit_report = [&](std::uint64_t retried) {
    std::lock_guard lock(mutex_);
    report_.retried_work_groups += retried;
    report_.quarantined.insert(report_.quarantined.end(),
                               quarantined_now.begin(), quarantined_now.end());
  };

  const auto backoff = [&](std::uint64_t attempt_nr) {
    std::uint64_t delay_ms = std::min<std::uint64_t>(
        config_.backoff_cap_ms,
        static_cast<std::uint64_t>(config_.backoff_base_ms)
            << std::min<std::uint64_t>(attempt_nr, 16));
    if (delay_ms == 0) return;
    // Deterministic jitter (no global RNG): same seed, same waits.
    delay_ms += splitmix64(config_.seed ^ (attempt_nr + 1)) % (delay_ms + 1);
    using clock = std::chrono::steady_clock;
    const auto until = clock::now() + std::chrono::milliseconds(delay_ms);
    while (clock::now() < until) {
      if (base.cancel != nullptr && base.cancel->cancelled()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  obs::Span span(sink, stage::kSupervisor);
  std::exception_ptr last_error;
  bool success = false;
  for (std::uint64_t attempt_nr = 0; attempt_nr < max_attempts;
       ++attempt_nr) {
    base.check_cancel("supervisor");
    RunControl run_ctl;
    run_ctl.cancel = base.cancel;
    run_ctl.skip_groups = std::span<const std::uint8_t>(skip);
    try {
      attempt(run_ctl);
      success = true;
      break;
    } catch (const CancelledError&) {
      // Cancellation is final: report what happened so far, never retry.
      commit_report(0);
      throw;
    } catch (const StageFailure& failure) {
      last_error = std::current_exception();
      const std::int64_t g = failure.group();
      if (g >= 0 && g < static_cast<std::int64_t>(nr_groups)) {
        const auto gi = static_cast<std::size_t>(g);
        if (++failures[gi] >= config_.max_attempts_per_group) {
          skip[gi] = 1;
          quarantined_now.push_back(
              QuarantinedGroup{g, failures[gi], failure.what()});
        }
      }
      backoff(attempt_nr);
    }
    // Anything else (contract violations, bad parameters, kReject scrub
    // errors) propagates untouched: those failures are deterministic
    // functions of the input and a retry cannot change them.
  }

  if (!success) {
    commit_report(0);
    if (last_error) {
      try {
        std::rethrow_exception(last_error);
      } catch (const std::exception& e) {
        throw Error(std::string("supervised ") + what + " gave up after " +
                    std::to_string(max_attempts) +
                    " attempts; last failure: " + e.what());
      }
    }
    throw Error(std::string("supervised ") + what +
                " made no attempt (max_run_attempts too small)");
  }

  // Success bookkeeping. A group with failures that was not quarantined
  // recovered on retry; quarantined groups are absent from the result and
  // their planned samples count as skipped (partial-result semantics of
  // BadSamplePolicy::kSkipWorkGroup).
  std::uint64_t retried = 0;
  for (std::size_t g = 0; g < nr_groups; ++g) {
    if (failures[g] > 0) ++retried;
  }
  retried -= quarantined_now.size();
  std::uint64_t skipped_samples = 0;
  for (const QuarantinedGroup& q : quarantined_now) {
    skipped_samples += group_samples(plan, static_cast<std::size_t>(q.group));
  }
  sink.record_recovery(stage::kSupervisor, retried, quarantined_now.size());
  if (skipped_samples != 0) {
    sink.record_data_quality(stage::kSupervisor, 0, skipped_samples);
  }
  commit_report(retried);
}

void ResilientBackend::grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                            ArrayView<const Visibility, 3> visibilities,
                            FlagView flags, ArrayView<const Jones, 4> aterms,
                            ArrayView<cfloat, 3> grid, obs::MetricsSink& sink,
                            const RunControl& ctl) const {
  // Per-attempt scratch COPY of the caller's grid: a failed attempt can
  // never double-accumulate, and the copy-in (rather than zeros) keeps the
  // successful attempt bit-identical to an unsupervised run.
  Array3D<cfloat> scratch(grid.dim(0), grid.dim(1), grid.dim(2));
  supervise(plan, sink, ctl, "grid", [&](const RunControl& run_ctl) {
    std::copy(grid.data(), grid.data() + grid.size(), scratch.data());
    inner_->grid(plan, uvw, visibilities, flags, aterms, scratch.view(), sink,
                 run_ctl);
    std::copy(scratch.data(), scratch.data() + scratch.size(), grid.data());
  });
}

void ResilientBackend::degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                              ArrayView<const cfloat, 3> grid, FlagView flags,
                              ArrayView<const Jones, 4> aterms,
                              ArrayView<Visibility, 3> visibilities,
                              obs::MetricsSink& sink,
                              const RunControl& ctl) const {
  Array3D<Visibility> scratch(visibilities.dim(0), visibilities.dim(1),
                              visibilities.dim(2));
  supervise(plan, sink, ctl, "degrid", [&](const RunControl& run_ctl) {
    std::copy(visibilities.data(), visibilities.data() + visibilities.size(),
              scratch.data());
    inner_->degrid(plan, uvw, grid, flags, aterms, scratch.view(), sink,
                   run_ctl);
    std::copy(scratch.data(), scratch.data() + scratch.size(),
              visibilities.data());
  });
}

std::unique_ptr<GridderBackend> make_resilient_backend(
    std::unique_ptr<GridderBackend> inner, SupervisorConfig config) {
  return std::make_unique<ResilientBackend>(std::move(inner), config);
}

}  // namespace idg
