// Sharded multi-process execution backend (DESIGN.md §16).
//
// `ShardedBackend` partitions a grid/degrid call's work groups into
// contiguous, visibility-balanced shards (shard/planner.hpp) and dispatches
// them to a pool of forked+exec'd worker processes speaking IDGSHRD1 over
// socketpairs (shard/protocol.hpp, shard/worker.hpp). The coordinator owns
// the failure model:
//
//   * worker death (EOF, wire corruption, waitpid) and heartbeat timeouts
//     (SO_RCVTIMEO mid-frame + per-worker idle deadlines) put the worker's
//     in-flight shard back at the FRONT of the queue and respawn a
//     replacement, bounded by max_respawns;
//   * a shard failing max_attempts_per_shard times (worker-reported errors
//     or deaths while holding it) is quarantined: its remaining groups are
//     dropped and reported, mirroring RunControl::skip_groups semantics;
//   * cancellation is final — a worker reporting a CancelledError rethrows
//     immediately, like the resilient supervisor;
//   * SIGTERM drain (install_sigterm_drain) aborts the in-flight call with
//     a CancelledError between events, so a checkpointing caller
//     (clean/run_major_cycles) keeps its last completed cycle's IDGCKPT1
//     file and a coordinator kill resumes bit-identically.
//
// Bit-identity: workers never touch the grid. Gridding workers ship each
// group's post-FFT subgrids; the coordinator runs the adder itself, in
// ascending group order behind a monotone merge cursor, executing exactly
// the addition sequence of a single-process run — so the result is
// memcmp-identical for every worker count and kill schedule. Degridding
// rects are disjoint per group, so scatter order is free.
//
// Duplicate results (a killed worker's shard re-runs groups it already
// delivered) are dropped by a per-group done set; a group is applied at
// most once.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "idg/backend.hpp"
#include "idg/processor.hpp"
#include "obs/metrics.hpp"

namespace idg::shard {

namespace stage {
/// Coordinator bookkeeping (spawn/dispatch/wait) wall time + the shard
/// counter block.
inline constexpr const char* kShard = "shard";
/// In-order application of worker results (adder / scatter) wall time.
inline constexpr const char* kShardMerge = "shard-merge";
}  // namespace stage

struct ShardConfig {
  /// Worker processes. Each runs an OpenMP team of max(1, the
  /// coordinator's omp_get_max_threads() / nr_workers) threads, so the
  /// pool shares the cores instead of oversubscribing them.
  std::size_t nr_workers = 2;
  /// Shards to cut the plan into; 0 derives 2x nr_workers so rebalancing
  /// after a death always has queued work to hand out.
  std::size_t nr_shards = 0;
  /// Times a shard may fail (worker error or death while holding it)
  /// before its remaining groups are quarantined.
  std::uint32_t max_attempts_per_shard = 3;
  /// Worker replacements allowed per call before the coordinator gives up
  /// (a respawn storm means something systemic, not a stray kill).
  std::uint32_t max_respawns = 8;
  /// Per-worker liveness deadline: a worker holding a shard that produces
  /// no frame bytes for this long is SIGKILLed and replaced. Also the
  /// SO_RCVTIMEO mid-frame receive timeout. 0 disables.
  std::uint32_t heartbeat_ms = 60000;
  /// In-worker bounded retries per work group (0 = fail the shard on the
  /// first group failure).
  std::uint32_t worker_retries = 1;
  /// Exponential backoff before the n-th worker respawn of a call:
  /// min(cap, base << (n-1)) ms with deterministic jitter (see
  /// respawn_backoff_ms), interruptible by drain/cancel. Keeps a
  /// crash-looping worker (bad binary, OOM killer) from respawn-storming
  /// the coordinator; the first respawn is immediate. base 0 disables.
  std::uint32_t respawn_backoff_base_ms = 2;
  std::uint32_t respawn_backoff_cap_ms = 200;
  /// Worker binary; "" = /proc/self/exe (the coordinator's own binary,
  /// which must dispatch shard::maybe_run_worker() first thing in main).
  std::string worker_path;
  /// Kernel-set registry name shipped to workers ("" = reference).
  std::string kernel_set;
};

/// What the coordinator did across the calls made so far (reset_report()
/// clears it; tests read it between runs).
struct ShardRunReport {
  obs::ShardCounters counters;
  std::uint64_t shards_completed = 0;
  std::uint64_t groups_quarantined = 0;
  std::vector<std::size_t> quarantined_shards;
  /// The OpenMP team size each worker reported running, one entry per
  /// kJobReady (a worker still decoding when the call ends reports none).
  std::vector<std::uint32_t> worker_threads;
};

class ShardedBackend final : public GridderBackend {
 public:
  ShardedBackend(const Parameters& params, ShardConfig config);
  ~ShardedBackend() override;

  std::string name() const override { return "sharded"; }
  const Parameters& parameters() const override {
    return merger_.parameters();
  }
  const ShardConfig& config() const { return config_; }

  ShardRunReport report() const;
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
  ShardConfig config_;
  /// Local Processor: runs the adder for the in-order merge (gridding) and
  /// carries Parameters/taper. Its kernels never execute in-process.
  Processor merger_;
  mutable std::mutex mutex_;
  mutable ShardRunReport report_;
};

/// Factory mirroring make_backend() (which cannot create sharded backends:
/// idg_core does not link idg_shard).
std::unique_ptr<GridderBackend> make_sharded_backend(const Parameters& params,
                                                     ShardConfig config);

/// Installs a SIGTERM handler that requests a coordinator drain. The
/// handler only performs async-signal-safe work: it sets a sig_atomic flag
/// and request_cancel()s the process-wide drain token (an atomic store).
/// The in-flight sharded call aborts with a CancelledError at the next
/// event-loop iteration; a caller that threads drain_token() into its
/// RunControl/MajorCycleConfig aborts at its next cancel check site.
/// Idempotent.
void install_sigterm_drain();

/// Installs the same drain handler for an arbitrary signal — e.g. SIGINT,
/// so an interactive Ctrl-C on a checkpointing run also drains gracefully
/// and keeps the last IDGCKPT1 checkpoint instead of dying mid-cycle.
/// Idempotent per signal.
void install_drain_signal(int signo);

/// Backoff delay before the n-th respawn (n >= 1) of one coordinated call:
/// min(cap_ms, base_ms << (n-1)) halved plus a deterministic jitter drawn
/// from the respawn ordinal, so simultaneous crash-looping coordinators do
/// not respawn in lockstep. n == 1 and base_ms == 0 return 0 (the first
/// replacement is free). Pure — exposed for tests.
std::uint32_t respawn_backoff_ms(std::uint32_t nth_respawn,
                                 std::uint32_t base_ms, std::uint32_t cap_ms);

/// True once a drain was requested (SIGTERM arrived or request_drain ran).
bool drain_requested();

/// Requests a drain programmatically (what the SIGTERM handler calls;
/// async-signal-safe). Tests use it to exercise the drain path without
/// signals.
void request_drain();

/// Clears the drain flag and swaps in a fresh drain token (tests; call
/// between runs — CancelToken cancellation is latched).
void reset_drain();

/// The process-wide token request_drain() cancels. Thread it into run
/// controls (e.g. MajorCycleConfig::cancel) so a SIGTERM also stops
/// between-cycle work promptly, not just the sharded call itself.
const CancelToken& drain_token();

}  // namespace idg::shard
