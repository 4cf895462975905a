#include "shard/coordinator.hpp"

#include <omp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "idg/accounting.hpp"
#include "shard/planner.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"

namespace idg::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// SIGTERM drain plumbing. The handler performs only async-signal-safe work:
// a sig_atomic flag store plus request_cancel() on the drain token (an
// atomic store). reset_drain() swaps in a fresh token (cancellation is
// latched) and retires the old one to a never-destroyed list instead of
// freeing it: a handler may still hold the pointer, and test-driven resets
// are bounded. The list keeps retired tokens reachable, so leak checkers
// do not report them.

volatile std::sig_atomic_t g_drain = 0;

std::atomic<CancelToken*>& drain_slot() {
  static std::atomic<CancelToken*> slot{new CancelToken};
  return slot;
}

std::vector<CancelToken*>& retired_drain_tokens() {
  static auto* retired = new std::vector<CancelToken*>;
  return *retired;
}

void handle_sigterm(int) { request_drain(); }

// ---------------------------------------------------------------------------
// Worker process bookkeeping.

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;
  bool ready = false;       ///< kJobReady received: may take assignments
  std::int64_t shard = -1;  ///< in-flight shard id, -1 = idle
  Clock::time_point last_heard;

  bool live() const { return fd >= 0; }
};

void kill_and_reap(WorkerProc& w) {
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  w.ready = false;
}

WorkerProc spawn_worker(const ShardConfig& config) {
  int sv[2];
  IDG_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
            "socketpair failed: " << std::strerror(errno));
  const std::string path =
      config.worker_path.empty() ? "/proc/self/exe" : config.worker_path;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    IDG_CHECK(false, "fork failed: " << std::strerror(errno));
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec (the parent may hold
    // arbitrary locks — OpenMP, malloc — at fork time).
    ::dup2(sv[1], 0);
    ::dup2(sv[1], 1);
    ::close(sv[0]);
    if (sv[1] > 1) ::close(sv[1]);
    // Die with the coordinator: a SIGKILLed coordinator must not leave
    // orphan workers behind. Re-check the parent to close the race where
    // it died before the prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(125);
    ::execl(path.c_str(), path.c_str(), kWorkerFlag,
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed; surfaces as an immediate EOF upstairs
  }
  ::close(sv[1]);
  if (config.heartbeat_ms > 0) {
    // Receive timeout guards a worker stalling mid-frame; send timeout
    // guards a wedged worker that stopped draining its channel while the
    // coordinator ships it a large job.
    timeval tv;
    tv.tv_sec = config.heartbeat_ms / 1000;
    tv.tv_usec = static_cast<long>(config.heartbeat_ms % 1000) * 1000;
    ::setsockopt(sv[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  WorkerProc w;
  w.pid = pid;
  w.fd = sv[0];
  w.last_heard = Clock::now();
  return w;
}

/// Kills and reaps every still-live worker on scope exit — the cleanup
/// path for cancellation and fatal errors. The graceful shutdown path
/// empties the pool first, making this a no-op.
struct PoolGuard {
  std::vector<WorkerProc>* workers;
  ~PoolGuard() {
    if (workers == nullptr) return;
    for (WorkerProc& w : *workers) kill_and_reap(w);
  }
};

// ---------------------------------------------------------------------------
// The coordinator event loop, shared by grid and degrid.

struct ShardState {
  ShardRange range;
  std::uint32_t failures = 0;
  bool quarantined = false;
};

class Run {
 public:
  /// `store` receives each group's first-delivered non-skip result;
  /// `progress` runs after every change to the done set (deliveries,
  /// quarantines, and once at startup) — the gridding merge cursor lives
  /// in it.
  using StoreFn = std::function<void(std::size_t, GroupResultMsg&&)>;
  using ProgressFn = std::function<void(const std::vector<std::uint8_t>&)>;

  Run(const ShardConfig& config, const Plan& plan, const RunControl& ctl,
      MsgType job_type, const std::string& job_payload, StoreFn store,
      ProgressFn progress)
      : config_(config),
        plan_(plan),
        ctl_(ctl),
        job_frame_(seal_frame(job_type, job_payload)),
        store_(std::move(store)),
        progress_(std::move(progress)) {}

  obs::ShardCounters counters;
  JobReadyMsg ready;
  bool have_ready = false;
  std::vector<std::uint32_t> worker_threads;  ///< every kJobReady echo
  std::uint64_t retried_groups = 0;
  std::uint64_t quarantined_groups = 0;
  std::uint64_t shards_completed = 0;
  std::vector<std::size_t> quarantined_shards;

  void execute() {
    const std::size_t nr_groups = plan_.nr_work_groups();
    done_.assign(nr_groups, 0);
    remaining_ = 0;
    for (std::size_t g = 0; g < nr_groups; ++g) {
      if (ctl_.group_skipped(g)) {
        done_[g] = 1;
      } else {
        ++remaining_;
      }
    }
    progress_(done_);
    if (remaining_ == 0) return;

    const std::size_t nr_shards =
        config_.nr_shards > 0 ? config_.nr_shards : 2 * config_.nr_workers;
    for (const ShardRange& range : plan_shards(plan_, nr_shards)) {
      queue_.push_back(shards_.size());
      shards_.push_back(ShardState{range});
    }

    PoolGuard guard{&workers_};
    const std::size_t pool =
        std::max<std::size_t>(1, std::min(config_.nr_workers, shards_.size()));
    for (std::size_t i = 0; i < pool; ++i) {
      ++counters.workers_spawned;
      spawn_one();
    }

    while (remaining_ > 0) {
      check_aborts();
      dispatch();
      poll_once();
      check_heartbeats();
    }

    // Graceful shutdown: a polite kShutdown, then close — a worker still
    // re-running already-delivered groups hits EPIPE and exits promptly.
    for (WorkerProc& w : workers_) {
      if (!w.live()) continue;
      try {
        write_frame(w.fd, MsgType::kShutdown, std::string());
      } catch (const WireError&) {
      }
      ::close(w.fd);
      w.fd = -1;
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
  }

 private:
  void check_aborts() {
    if (drain_requested()) {
      throw CancelledError(
          "SIGTERM drain: aborting the sharded call (a checkpointing "
          "caller resumes from its last completed cycle)");
    }
    ctl_.check_cancel("shard.coordinator");
  }

  /// Spawns a worker and ships it the job (the frame sealed once per
  /// call). On an immediate wire failure the dead entry is still recorded;
  /// the caller's respawn loop decides whether to try again.
  bool spawn_one() {
    WorkerProc w = spawn_worker(config_);
    bool ok = true;
    try {
      write_frame(w.fd, job_frame_);
    } catch (const WireError&) {
      kill_and_reap(w);
      ok = false;
    }
    workers_.push_back(std::move(w));
    return ok;
  }

  /// Interruptible backoff sleep before a respawn: 1 ms slices, bailing
  /// out as soon as a drain or cancellation is requested (check_aborts()
  /// in the event loop then surfaces the CancelledError).
  void backoff_sleep(std::uint32_t delay_ms) {
    for (std::uint32_t slept = 0; slept < delay_ms; ++slept) {
      if (drain_requested()) return;
      if (ctl_.cancel != nullptr && ctl_.cancel->cancelled()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void respawn(const std::string& why) {
    while (!queue_.empty()) {
      IDG_CHECK(respawns_ < config_.max_respawns,
                "shard worker respawn limit ("
                    << config_.max_respawns
                    << ") exceeded; last failure: " << why);
      ++respawns_;
      ++counters.workers_respawned;
      backoff_sleep(respawn_backoff_ms(respawns_,
                                       config_.respawn_backoff_base_ms,
                                       config_.respawn_backoff_cap_ms));
      if (spawn_one()) return;
    }
  }

  std::size_t live_workers() const {
    std::size_t n = 0;
    for (const WorkerProc& w : workers_) n += w.live() ? 1 : 0;
    return n;
  }

  void quarantine_shard(std::size_t s) {
    ShardState& st = shards_[s];
    st.quarantined = true;
    ++counters.shards_quarantined;
    quarantined_shards.push_back(s);
    for (std::size_t g = st.range.group_begin; g < st.range.group_end; ++g) {
      if (done_[g] != 0) continue;
      done_[g] = 1;
      --remaining_;
      ++quarantined_groups;
    }
    progress_(done_);
  }

  void shard_failed(std::size_t s, const std::string& why) {
    ShardState& st = shards_[s];
    ++st.failures;
    if (st.failures >= config_.max_attempts_per_shard) {
      quarantine_shard(s);
      return;
    }
    // Rebalance: back at the FRONT so the oldest unfinished work re-runs
    // first and the merge cursor unblocks as soon as possible.
    std::uint64_t undone = 0;
    for (std::size_t g = st.range.group_begin; g < st.range.group_end; ++g) {
      undone += done_[g] == 0 ? 1 : 0;
    }
    retried_groups += undone;
    queue_.push_front(s);
    ++counters.shards_rebalanced;
    (void)why;
  }

  void fail_worker(WorkerProc& w, const std::string& why) {
    if (!w.live()) return;
    kill_and_reap(w);
    const std::int64_t s = w.shard;
    w.shard = -1;
    if (s >= 0) shard_failed(static_cast<std::size_t>(s), why);
    if (remaining_ > 0 && !queue_.empty() &&
        live_workers() < config_.nr_workers) {
      respawn(why);
    }
  }

  void dispatch() {
    // Index loop: fail_worker() may respawn (push_back) and reallocate
    // workers_, so range iterators and held references would dangle.
    for (std::size_t i = 0, n = workers_.size(); i < n; ++i) {
      if (queue_.empty()) break;
      WorkerProc& w = workers_[i];
      if (!w.live() || !w.ready || w.shard >= 0) continue;
      const std::size_t s = queue_.front();
      const ShardRange& range = shards_[s].range;
      ShardAssignMsg assign{s, range.group_begin, range.group_end};
      try {
        write_frame(w.fd, MsgType::kShardAssign, encode_shard_assign(assign));
      } catch (const WireError& e) {
        fail_worker(w, e.what());  // shard stays queued (popped on success)
        continue;
      }
      queue_.pop_front();
      w.shard = static_cast<std::int64_t>(s);
      ++counters.shards_dispatched;
    }
  }

  void handle_frame(WorkerProc& w, Frame frame) {
    switch (frame.type) {
      case MsgType::kHello:
        decode_hello(frame.payload);  // validates magic + version
        break;
      case MsgType::kJobReady: {
        const JobReadyMsg msg = decode_job_ready(frame.payload);
        if (!have_ready) {
          // Every worker scrubs the identical job; record once.
          ready = msg;
          have_ready = true;
        }
        worker_threads.push_back(msg.threads);
        w.ready = true;
        break;
      }
      case MsgType::kGroupResult: {
        GroupResultMsg msg = decode_group_result(std::move(frame.payload));
        const std::size_t g = msg.group;
        IDG_CHECK(g < done_.size(),
                  "worker reported a result for out-of-range group " << g);
        if (done_[g] != 0) break;  // duplicate from a rebalanced shard
        done_[g] = 1;
        --remaining_;
        if (msg.kind != ResultKind::kSkipped) store_(g, std::move(msg));
        progress_(done_);
        break;
      }
      case MsgType::kShardDone: {
        const std::uint64_t s = decode_shard_done(frame.payload);
        if (s >= shards_.size() || w.shard != static_cast<std::int64_t>(s)) {
          fail_worker(w, "worker completed a shard it was not assigned");
          break;
        }
        ++shards_completed;
        w.shard = -1;
        break;
      }
      case MsgType::kShardError: {
        const ShardErrorMsg err = decode_shard_error(frame.payload);
        if (err.cancelled != 0) {
          // Cancellation is final (supervisor semantics): never rebalanced.
          throw CancelledError(err.message);
        }
        const std::int64_t s = w.shard;
        w.shard = -1;  // the worker survives and stays usable
        if (s >= 0 && static_cast<std::uint64_t>(s) == err.shard) {
          shard_failed(static_cast<std::size_t>(s), err.message);
        }
        break;
      }
      default:
        fail_worker(w, std::string("unexpected ") + to_string(frame.type) +
                           " frame from a worker");
        break;
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (!workers_[i].live()) continue;
      fds.push_back(pollfd{workers_[i].fd, POLLIN, 0});
      owner.push_back(i);
    }
    IDG_CHECK(!fds.empty(),
              "no live shard workers remain with " << remaining_
                                                   << " group(s) unfinished");
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0) {
      IDG_CHECK(errno == EINTR, "poll failed: " << std::strerror(errno));
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Re-index instead of holding a reference: frame handling may
      // respawn a worker (push_back) and reallocate workers_.
      const std::size_t wi = owner[i];
      if (!workers_[wi].live()) continue;  // failed handling an earlier fd
      try {
        std::optional<Frame> frame = read_frame(workers_[wi].fd);
        if (!frame) {
          throw WireError("worker closed its channel unexpectedly");
        }
        workers_[wi].last_heard = Clock::now();
        handle_frame(workers_[wi], std::move(*frame));
      } catch (const WireError& e) {
        fail_worker(workers_[wi], e.what());
      }
    }
  }

  void check_heartbeats() {
    if (config_.heartbeat_ms == 0) return;
    const auto deadline = std::chrono::milliseconds(config_.heartbeat_ms);
    // Index loop: fail_worker() can push_back a replacement worker.
    for (std::size_t i = 0, n = workers_.size(); i < n; ++i) {
      // Only workers holding a shard owe liveness: an idle worker has
      // nothing to say, and job decode time is bounded by the send/receive
      // timeouts on the channel itself.
      WorkerProc& w = workers_[i];
      if (!w.live() || w.shard < 0) continue;
      if (Clock::now() - w.last_heard > deadline) {
        fail_worker(w, "heartbeat deadline (" +
                           std::to_string(config_.heartbeat_ms) +
                           " ms) exceeded");
      }
    }
  }

  const ShardConfig& config_;
  const Plan& plan_;
  const RunControl& ctl_;
  SealedFrame job_frame_;
  StoreFn store_;
  ProgressFn progress_;

  std::vector<ShardState> shards_;
  std::deque<std::size_t> queue_;
  std::vector<WorkerProc> workers_;
  std::vector<std::uint8_t> done_;
  std::size_t remaining_ = 0;
  std::uint32_t respawns_ = 0;
};

/// Each worker's share of the coordinator's OpenMP team: the workers run
/// at once, so full teams in every one would oversubscribe the cores.
std::uint32_t worker_thread_budget(std::size_t nr_workers) {
  const auto cores = static_cast<std::size_t>(omp_get_max_threads());
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(1, cores / nr_workers));
}

std::uint64_t count_flagged(std::span<const WorkItem> items, FlagView flags) {
  if (flags.size() == 0) return 0;
  std::uint64_t n = 0;
  for (const WorkItem& item : items) {
    for (int t = 0; t < item.nr_timesteps; ++t) {
      for (int c = 0; c < item.nr_channels; ++c) {
        n += flags(static_cast<std::size_t>(item.baseline),
                   static_cast<std::size_t>(item.time_begin + t),
                   static_cast<std::size_t>(item.channel_begin + c)) != 0
                 ? 1
                 : 0;
      }
    }
  }
  return n;
}

}  // namespace

ShardedBackend::ShardedBackend(const Parameters& params, ShardConfig config)
    : config_(std::move(config)), merger_(params) {
  IDG_CHECK(config_.nr_workers >= 1,
            "a sharded backend needs at least one worker");
  IDG_CHECK(config_.max_attempts_per_shard >= 1,
            "max_attempts_per_shard must be at least 1");
}

ShardedBackend::~ShardedBackend() = default;

ShardRunReport ShardedBackend::report() const {
  std::lock_guard lock(mutex_);
  return report_;
}

void ShardedBackend::reset_report() {
  std::lock_guard lock(mutex_);
  report_ = ShardRunReport{};
}

void ShardedBackend::grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                          ArrayView<const Visibility, 3> visibilities,
                          FlagView flags, ArrayView<const Jones, 4> aterms,
                          ArrayView<cfloat, 3> grid, obs::MetricsSink& sink,
                          const RunControl& ctl_in) const {
  const Parameters& params = parameters();
  const ScopedRunControl scoped(ctl_in, params.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const std::size_t n = params.subgrid_size;
  check_aterm_raster(aterms, n);
  const auto t0 = Clock::now();

  const std::string payload =
      encode_grid_job(plan, uvw, visibilities, flags, aterms, ctl.skip_groups,
                      config_.kernel_set, config_.worker_retries,
                      worker_thread_budget(config_.nr_workers));

  // In-order merge state: results park in `pending` until every earlier
  // group is done, then the adder applies them strictly ascending — the
  // exact addition sequence of a single-process run (bit-identity).
  const std::size_t nr_groups = plan.nr_work_groups();
  std::vector<std::string> pending(nr_groups);
  std::vector<std::uint8_t> has_result(nr_groups, 0);
  std::size_t next_apply = 0;
  Array4D<cfloat> subgrids(params.work_group_size,
                           static_cast<std::size_t>(kNrPolarizations), n, n);
  double merge_seconds = 0.0;

  Run run(
      config_, plan, ctl, MsgType::kJobGrid, payload,
      [&](std::size_t g, GroupResultMsg&& msg) {
        const auto items = plan.work_group(g);
        IDG_CHECK(msg.kind == ResultKind::kSubgrids,
                  "grid worker delivered a non-subgrid result for group "
                      << g);
        const std::size_t bytes =
            items.size() * static_cast<std::size_t>(kNrPolarizations) * n *
            n * sizeof(cfloat);
        IDG_CHECK(msg.count == items.size() && msg.data.size() == bytes,
                  "subgrid result for group " << g << " has the wrong size");
        pending[g] = std::move(msg.data);
        has_result[g] = 1;
      },
      [&](const std::vector<std::uint8_t>& done) {
        while (next_apply < nr_groups && done[next_apply] != 0) {
          if (has_result[next_apply] != 0) {
            const auto m0 = Clock::now();
            std::memcpy(subgrids.data(), pending[next_apply].data(),
                        pending[next_apply].size());
            merger_.add_group_to_grid(plan, next_apply, subgrids.cview(),
                                      grid, sink);
            const double dt = seconds_since(m0);
            merge_seconds += dt;
            sink.record(stage::kShardMerge, dt);
            pending[next_apply] = std::string();  // free the parked payload
          }
          ++next_apply;
        }
      });
  run.execute();

  // Metric parity with the single-process grid loop: scrub data quality
  // (from the first worker's report — every worker scrubs identically)
  // and the plan-derived analytic op counters.
  if (run.have_ready) {
    sink.record_data_quality(idg::stage::kScrub, run.ready.scrubbed,
                             run.ready.skipped_samples);
  }
  sink.record_ops(idg::stage::kGridder, gridder_op_counts(plan));
  sink.record_ops(idg::stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(idg::stage::kAdder, adder_op_counts(plan));

  obs::ShardCounters counters = run.counters;
  counters.merge_seconds = merge_seconds;
  sink.record(stage::kShard, seconds_since(t0));
  sink.record_shard(stage::kShard, counters);
  if (run.retried_groups > 0 || run.quarantined_groups > 0) {
    sink.record_recovery(stage::kShard, run.retried_groups,
                         run.quarantined_groups);
  }

  std::lock_guard lock(mutex_);
  report_.counters += counters;
  report_.shards_completed += run.shards_completed;
  report_.groups_quarantined += run.quarantined_groups;
  report_.quarantined_shards.insert(report_.quarantined_shards.end(),
                                    run.quarantined_shards.begin(),
                                    run.quarantined_shards.end());
  report_.worker_threads.insert(report_.worker_threads.end(),
                                run.worker_threads.begin(),
                                run.worker_threads.end());
}

void ShardedBackend::degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                            ArrayView<const cfloat, 3> grid, FlagView flags,
                            ArrayView<const Jones, 4> aterms,
                            ArrayView<Visibility, 3> visibilities,
                            obs::MetricsSink& sink,
                            const RunControl& ctl_in) const {
  const Parameters& params = parameters();
  const ScopedRunControl scoped(ctl_in, params.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  check_aterm_raster(aterms, params.subgrid_size);
  const auto t0 = Clock::now();

  const std::string payload =
      encode_degrid_job(plan, uvw, grid, flags, aterms, ctl.skip_groups,
                        config_.kernel_set, config_.worker_retries,
                        worker_thread_budget(config_.nr_workers));

  double merge_seconds = 0.0;
  std::uint64_t zeroed = 0;

  Run run(
      config_, plan, ctl, MsgType::kJobDegrid, payload,
      [&](std::size_t g, GroupResultMsg&& msg) {
        const auto items = plan.work_group(g);
        IDG_CHECK(msg.kind == ResultKind::kVisibilities,
                  "degrid worker delivered a non-visibility result for group "
                      << g);
        std::size_t expected = 0;
        for (const WorkItem& item : items) expected += item.nr_visibilities();
        IDG_CHECK(
            msg.count == expected &&
                msg.data.size() == expected * sizeof(Visibility),
            "predicted rect result for group " << g << " has the wrong size");
        // Scatter the packed rects; items cover disjoint blocks so the
        // arrival order across groups cannot change the result.
        const auto m0 = Clock::now();
        const char* src = msg.data.data();
        for (const WorkItem& item : items) {
          const std::size_t row =
              static_cast<std::size_t>(item.nr_channels) * sizeof(Visibility);
          const auto bl = static_cast<std::size_t>(item.baseline);
          const auto c0 = static_cast<std::size_t>(item.channel_begin);
          for (int t = 0; t < item.nr_timesteps; ++t) {
            const auto ts = static_cast<std::size_t>(item.time_begin + t);
            std::memcpy(&visibilities(bl, ts, c0), src, row);
            src += row;
          }
        }
        // What zero_flagged_outputs() zeroed worker-side for this group —
        // keeps the scrub data-quality counter identical to a
        // single-process degrid.
        if (params.bad_sample_policy == BadSamplePolicy::kZeroAndContinue) {
          zeroed += count_flagged(items, flags);
        }
        sink.record_bytes(idg::stage::kSplitter,
                          splitter_moved_bytes(params, items.size()));
        const double dt = seconds_since(m0);
        merge_seconds += dt;
        sink.record(stage::kShardMerge, dt);
      },
      [](const std::vector<std::uint8_t>&) {});
  run.execute();

  if (flags.size() != 0 && run.have_ready) {
    sink.record_data_quality(idg::stage::kScrub, zeroed + run.ready.scrubbed,
                             run.ready.skipped_samples);
  }
  sink.record_ops(idg::stage::kSplitter, splitter_op_counts(plan));
  sink.record_ops(idg::stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(idg::stage::kDegridder, degridder_op_counts(plan));

  obs::ShardCounters counters = run.counters;
  counters.merge_seconds = merge_seconds;
  sink.record(stage::kShard, seconds_since(t0));
  sink.record_shard(stage::kShard, counters);
  if (run.retried_groups > 0 || run.quarantined_groups > 0) {
    sink.record_recovery(stage::kShard, run.retried_groups,
                         run.quarantined_groups);
  }

  std::lock_guard lock(mutex_);
  report_.counters += counters;
  report_.shards_completed += run.shards_completed;
  report_.groups_quarantined += run.quarantined_groups;
  report_.quarantined_shards.insert(report_.quarantined_shards.end(),
                                    run.quarantined_shards.begin(),
                                    run.quarantined_shards.end());
  report_.worker_threads.insert(report_.worker_threads.end(),
                                run.worker_threads.begin(),
                                run.worker_threads.end());
}

std::unique_ptr<GridderBackend> make_sharded_backend(const Parameters& params,
                                                     ShardConfig config) {
  return std::make_unique<ShardedBackend>(params, std::move(config));
}

void install_sigterm_drain() { install_drain_signal(SIGTERM); }

void install_drain_signal(int signo) {
  drain_slot();  // force token construction before any signal can arrive
  struct sigaction sa = {};
  sa.sa_handler = handle_sigterm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(signo, &sa, nullptr);
}

std::uint32_t respawn_backoff_ms(std::uint32_t nth_respawn,
                                 std::uint32_t base_ms,
                                 std::uint32_t cap_ms) {
  if (nth_respawn <= 1 || base_ms == 0) return 0;
  const std::uint32_t shift = std::min<std::uint32_t>(nth_respawn - 1, 20);
  const std::uint64_t full = std::min<std::uint64_t>(
      cap_ms, static_cast<std::uint64_t>(base_ms) << shift);
  // Deterministic jitter (splitmix64 of the respawn ordinal): half the
  // window is guaranteed, the other half varies per ordinal — bounded,
  // reproducible, and desynchronized across ordinals.
  std::uint64_t h = (static_cast<std::uint64_t>(nth_respawn) + 1) *
                    0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  const std::uint64_t half = full / 2;
  return static_cast<std::uint32_t>(half + (half > 0 ? h % (half + 1) : 0));
}

bool drain_requested() { return g_drain != 0; }

void request_drain() {
  g_drain = 1;
  drain_slot().load(std::memory_order_acquire)->request_cancel();
}

void reset_drain() {
  g_drain = 0;
  retired_drain_tokens().push_back(
      drain_slot().exchange(new CancelToken, std::memory_order_acq_rel));
}

const CancelToken& drain_token() {
  return *drain_slot().load(std::memory_order_acquire);
}

}  // namespace idg::shard
