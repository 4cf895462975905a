// Core record types of the observability layer (DESIGN.md §8).
//
// The paper's headline results (Figs 9-15) are all *measurements*: per-stage
// runtimes, operation mixes and energy distributions. `obs` collects those
// measurements once, for every execution backend, instead of each pipeline
// and bench re-inventing its own accounting:
//
//   * `StageMetrics`  — what one pipeline stage accumulated: wall seconds,
//     invocation count, a log-bucketed latency histogram of the individual
//     span durations (obs/histogram.hpp), and the analytic op/byte counters
//     derived from the execution plan (src/idg/accounting.cpp).
//   * `MetricsSnapshot` — a point-in-time copy of a sink's aggregated
//     state, keyed by stage name. This is what the exporters
//     (obs/export.hpp) serialize and what the benches read.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/counters.hpp"
#include "obs/histogram.hpp"

namespace idg::obs {

/// Measured hardware counter totals (obs/perfcounters.hpp, DESIGN.md §15).
///
/// One HwCounters holds the multiplex-scaled deltas of the grouped
/// perf_event counters accumulated over `samples` scoped windows (one
/// window per completed span while a PerfCounterSession is installed).
/// Counters are per *calling thread* and user-space only: a stage that
/// fans work out to OpenMP/pool threads reports the orchestrating thread's
/// share, so the derived ratios (ipc(), llc_miss_rate()) stay meaningful
/// while the absolute totals are a per-thread view, not a machine-wide sum.
/// `samples == 0` means "never measured": the exporters omit the hw block
/// entirely (not zeroes) so counter-free output is byte-identical to a
/// build without counter support.
struct HwCounters {
  std::uint64_t samples = 0;       ///< scoped windows aggregated
  std::uint64_t cycles = 0;        ///< CPU cycles (user space)
  std::uint64_t instructions = 0;  ///< retired instructions (user space)
  std::uint64_t llc_loads = 0;     ///< last-level-cache read accesses
  std::uint64_t llc_misses = 0;    ///< last-level-cache read misses
  std::uint64_t stalled_cycles_backend = 0;  ///< backend stall cycles
  std::uint64_t task_clock_ns = 0;           ///< on-CPU time (software clock)
  /// Multiplex bookkeeping summed over the windows: when the PMU has fewer
  /// slots than the group wants, the kernel time-slices the group and
  /// time_running < time_enabled; the raw counts above are already scaled
  /// by enabled/running (see obs::scale_multiplexed), these record how much
  /// extrapolation that took.
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;

  /// An LLC miss moves one cache line to/from DRAM; this is the measured
  /// counterpart of the analytic dev_bytes counts.
  static constexpr std::uint64_t kCacheLineBytes = 64;

  double ipc() const {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double llc_miss_rate() const {
    return llc_loads > 0 ? static_cast<double>(llc_misses) /
                               static_cast<double>(llc_loads)
                         : 0.0;
  }
  std::uint64_t llc_miss_bytes() const { return llc_misses * kCacheLineBytes; }
  /// Fraction of the enabled time the group was actually counting
  /// (1 = never multiplexed). 1 when nothing was ever enabled.
  double multiplex_fraction() const {
    return time_enabled_ns > 0 ? static_cast<double>(time_running_ns) /
                                     static_cast<double>(time_enabled_ns)
                               : 1.0;
  }
  bool any() const { return samples != 0; }

  HwCounters& operator+=(const HwCounters& other) {
    samples += other.samples;
    cycles += other.cycles;
    instructions += other.instructions;
    llc_loads += other.llc_loads;
    llc_misses += other.llc_misses;
    stalled_cycles_backend += other.stalled_cycles_backend;
    task_clock_ns += other.task_clock_ns;
    time_enabled_ns += other.time_enabled_ns;
    time_running_ns += other.time_running_ns;
    return *this;
  }
};

/// Multi-process shard coordination counters (src/shard/, DESIGN.md §16).
///
/// Recorded by the shard coordinator under its "shard" stage: pool
/// lifecycle (spawned/respawned workers), elastic rebalance decisions
/// (shards re-dispatched after a worker died or failed), shard-level
/// quarantine (work groups dropped after a shard exhausted its attempts),
/// and the wall time of the deterministic in-order merge. Like HwCounters,
/// `any() == false` means "never recorded" and the exporters omit the
/// block entirely, keeping single-process output byte-identical.
struct ShardCounters {
  std::uint64_t workers_spawned = 0;    ///< initial pool spawns
  std::uint64_t workers_respawned = 0;  ///< replacements after a death
  std::uint64_t shards_dispatched = 0;  ///< shard assignments sent (incl. re-sends)
  std::uint64_t shards_rebalanced = 0;  ///< shards requeued after a failure
  std::uint64_t shards_quarantined = 0; ///< shards dropped after repeated poison
  double merge_seconds = 0.0;           ///< wall time of the in-order merge

  bool any() const {
    return (workers_spawned | workers_respawned | shards_dispatched |
            shards_rebalanced | shards_quarantined) != 0 ||
           merge_seconds != 0.0;
  }

  ShardCounters& operator+=(const ShardCounters& other) {
    workers_spawned += other.workers_spawned;
    workers_respawned += other.workers_respawned;
    shards_dispatched += other.shards_dispatched;
    shards_rebalanced += other.shards_rebalanced;
    shards_quarantined += other.shards_quarantined;
    merge_seconds += other.merge_seconds;
    return *this;
  }
};

/// Multi-tenant job-server counters (src/server/, DESIGN.md §17).
///
/// Recorded by the idg-server daemon under its "server" stage (aggregate)
/// and one "server.tenant.<name>" stage per tenant: admission outcomes
/// (admitted vs. rejected, with the queue-full and quota rejection causes
/// broken out), terminal job states (completed / failed / cancelled /
/// checkpointed — every accepted job lands in exactly one), the peak job
/// queue depth, and the drain outcome (`drained` latches to 1 after a
/// graceful SIGTERM drain; `drain_timeouts` counts jobs still running when
/// the drain deadline expired and had to be cancelled). Like HwCounters,
/// `any() == false` means "never recorded" and the exporters omit the
/// block entirely, keeping serverless output byte-identical.
struct ServerCounters {
  std::uint64_t jobs_admitted = 0;   ///< jobs accepted into the queue
  std::uint64_t jobs_rejected = 0;   ///< all rejections (named errors)
  std::uint64_t queue_full_rejections = 0;  ///< bounded-queue rejections
  std::uint64_t quota_rejections = 0;       ///< per-tenant quota rejections
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;     ///< client cancel/disconnect/deadline
  std::uint64_t jobs_checkpointed = 0;  ///< drained with a resumable IDGCKPT1
  std::uint64_t queue_depth_peak = 0;   ///< max queued jobs observed
  std::uint64_t drain_timeouts = 0;     ///< jobs cancelled at the drain deadline
  std::uint64_t drained = 0;            ///< 1 after a graceful drain completed
  std::uint64_t accept_failures = 0;    ///< connections dropped at accept()

  bool any() const {
    return (jobs_admitted | jobs_rejected | queue_full_rejections |
            quota_rejections | jobs_completed | jobs_failed | jobs_cancelled |
            jobs_checkpointed | queue_depth_peak | drain_timeouts | drained |
            accept_failures) != 0;
  }

  ServerCounters& operator+=(const ServerCounters& other) {
    jobs_admitted += other.jobs_admitted;
    jobs_rejected += other.jobs_rejected;
    queue_full_rejections += other.queue_full_rejections;
    quota_rejections += other.quota_rejections;
    jobs_completed += other.jobs_completed;
    jobs_failed += other.jobs_failed;
    jobs_cancelled += other.jobs_cancelled;
    jobs_checkpointed += other.jobs_checkpointed;
    // Peak and the drain latch merge by max: summing two views of the same
    // server would overstate them.
    queue_depth_peak = queue_depth_peak > other.queue_depth_peak
                           ? queue_depth_peak
                           : other.queue_depth_peak;
    drain_timeouts += other.drain_timeouts;
    drained = drained > other.drained ? drained : other.drained;
    accept_failures += other.accept_failures;
    return *this;
  }
};

/// Aggregated measurements for one named pipeline stage.
struct StageMetrics {
  double seconds = 0.0;           ///< accumulated wall-clock time
  std::uint64_t invocations = 0;  ///< completed spans
  OpCounts ops;                   ///< analytic op/byte counters (may be zero)
  /// Bytes the stage actually moved, recorded as work is executed (the
  /// adder/splitter report their grid+subgrid traffic per work group);
  /// moved_bytes / seconds is the stage's effective bandwidth.
  std::uint64_t moved_bytes = 0;
  /// Distribution of the individual span durations: one sample per
  /// single-invocation record() call (bulk records update the totals only,
  /// since the per-span latencies are unknown there).
  LatencyHistogram latency;
  /// Data-quality counters (DESIGN.md §11): samples neutralized in place
  /// (flagged or non-finite, zeroed or rejected by the scrub pass) and
  /// samples skipped wholesale because their work group was dropped under
  /// BadSamplePolicy::kSkipWorkGroup.
  std::uint64_t scrubbed_samples = 0;
  std::uint64_t skipped_samples = 0;
  /// Recovery counters (DESIGN.md §12), recorded by the resilient
  /// supervisor under its own stage: work groups that failed at least once
  /// but eventually succeeded on retry, and work groups quarantined after
  /// exhausting their attempts (their samples are absent from the result,
  /// like skipped_samples).
  std::uint64_t retried_work_groups = 0;
  std::uint64_t quarantined_work_groups = 0;
  /// Measured hardware counter totals (DESIGN.md §15), accumulated by
  /// record_hw() while a PerfCounterSession is live. hw.samples == 0 means
  /// the stage was never measured and the exporters omit the block.
  HwCounters hw;
  /// Shard coordination counters (DESIGN.md §16), recorded by the
  /// multi-process coordinator via record_shard(). shard.any() == false
  /// means single-process execution and the exporters omit the block.
  ShardCounters shard;
  /// Multi-tenant job-server counters (DESIGN.md §17), recorded by the
  /// idg-server daemon via record_server(). server.any() == false means no
  /// server ran and the exporters omit the block.
  ServerCounters server;

  StageMetrics& operator+=(const StageMetrics& other) {
    seconds += other.seconds;
    invocations += other.invocations;
    ops += other.ops;
    moved_bytes += other.moved_bytes;
    latency += other.latency;
    scrubbed_samples += other.scrubbed_samples;
    skipped_samples += other.skipped_samples;
    retried_work_groups += other.retried_work_groups;
    quarantined_work_groups += other.quarantined_work_groups;
    hw += other.hw;
    shard += other.shard;
    server += other.server;
    return *this;
  }
};

/// Stage name -> aggregated metrics (std::map: stable, sorted iteration
/// order — the exporters rely on it for a deterministic schema).
using MetricsSnapshot = std::map<std::string, StageMetrics>;

/// The resilient backend's supervisor stage. Its span encloses the spans of
/// the executor it supervises, whose stages already count that time.
inline constexpr const char* kSupervisorStage = "supervisor";

/// Sum of the wall seconds over all stages, leaving out the enclosing
/// supervisor stage so supervised work is counted once.
inline double total_seconds(const MetricsSnapshot& snapshot) {
  double sum = 0.0;
  for (const auto& [name, m] : snapshot)
    if (name != kSupervisorStage) sum += m.seconds;
  return sum;
}

/// Sum of the op/byte counters over all stages.
inline OpCounts total_ops(const MetricsSnapshot& snapshot) {
  OpCounts sum;
  for (const auto& [_, m] : snapshot) sum += m.ops;
  return sum;
}

}  // namespace idg::obs
