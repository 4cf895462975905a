#include "shard/worker.hpp"

#include <fcntl.h>
#include <omp.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "idg/processor.hpp"
#include "idg/scrub.hpp"
#include "idg/supervisor.hpp"
#include "obs/sink.hpp"
#include "shard/protocol.hpp"

namespace idg::shard {

namespace {

/// Deterministic test kill: IDG_SHARD_TEST_DIE="<group>:<marker-path>"
/// makes the worker SIGKILL itself right before computing that group —
/// but only once: the first worker to arrive creates the marker file
/// atomically (O_EXCL) and dies; its respawned successor finds the marker
/// and survives the same group. No timing, no randomness.
struct TestDie {
  std::int64_t group = -1;
  std::string marker;
};

std::optional<TestDie> parse_test_die() {
  const char* spec = std::getenv("IDG_SHARD_TEST_DIE");
  if (spec == nullptr) return std::nullopt;
  const char* colon = std::strchr(spec, ':');
  IDG_CHECK(colon != nullptr && colon != spec && colon[1] != '\0',
            "IDG_SHARD_TEST_DIE must be '<group>:<marker-path>', got '"
                << spec << "'");
  TestDie die;
  die.group = std::atoll(std::string(spec, colon).c_str());
  die.marker = colon + 1;
  return die;
}

void maybe_die_at(const std::optional<TestDie>& die, std::size_t group) {
  if (!die || static_cast<std::int64_t>(group) != die->group) return;
  const int fd =
      ::open(die->marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return;  // marker exists: this kill already happened
  ::close(fd);
  ::raise(SIGKILL);
}

/// One decoded gridding job and everything derived from it that persists
/// across shard assignments: the kernel set, the scrubbed cube, the
/// per-group deadline token and the reusable subgrid buffer.
class GridJobState {
 public:
  explicit GridJobState(GridJobMsg msg)
      : job_(std::move(msg)),
        proc_(job_.common.plan.parameters(),
              resolve_kernel_set(job_.common.kernel_set)),
        token_(job_.common.plan.parameters().deadline_ms),
        scope_(token_),
        scrubbed_(scrub_gridder_input(
            job_.common.plan.parameters(), job_.common.plan,
            job_.visibilities.cview(), job_.common.flag_view(), &token_)),
        subgrids_(job_.common.plan.parameters().work_group_size,
                  static_cast<std::size_t>(kNrPolarizations),
                  job_.common.plan.parameters().subgrid_size,
                  job_.common.plan.parameters().subgrid_size),
        data_{job_.common.uvw.cview(), job_.common.plan.wavenumbers(),
              job_.common.aterms.cview(), proc_.taper().cview()} {
    check_aterm_raster(job_.common.aterms.cview(),
                       job_.common.plan.parameters().subgrid_size);
  }

  JobReadyMsg ready() const {
    return JobReadyMsg{scrubbed_.report().scrubbed(),
                       scrubbed_.report().skipped_samples, 1};
  }

  void run_shard(const ShardAssignMsg& assign, int out_fd,
                 const std::optional<TestDie>& die, std::int64_t& current) {
    const Plan& plan = job_.common.plan;
    const Parameters& params = plan.parameters();
    IDG_CHECK(assign.group_end <= plan.nr_work_groups(),
              "shard assignment exceeds the plan's work groups");
    RunControl caller;
    caller.skip_groups = job_.common.skip_groups;
    for (std::size_t g = assign.group_begin; g < assign.group_end; ++g) {
      current = static_cast<std::int64_t>(g);
      token_.check("shard.worker.grid", current);
      GroupResultMsg result;
      result.group = g;
      if (scrubbed_.group_skipped(g) || caller.group_skipped(g)) {
        result.kind = ResultKind::kSkipped;
      } else {
        maybe_die_at(die, g);
        const auto items = plan.work_group(g);
        // Bounded in-worker retry: a transient StageFailure re-runs the
        // group (the kernels are pure functions of their inputs, so the
        // retry is bit-identical); cancellation and exhausted attempts
        // propagate and abandon the shard.
        const std::uint32_t attempts = job_.common.worker_retries + 1;
        for (std::uint32_t attempt = 0;; ++attempt) {
          try {
            proc_.grid_group_subgrids(plan, g, data_, scrubbed_.view(),
                                      subgrids_.view(), obs::null_sink());
            break;
          } catch (const CancelledError&) {
            throw;
          } catch (const Error&) {
            if (attempt + 1 >= attempts) throw;
          }
        }
        const std::size_t n = params.subgrid_size;
        result.kind = ResultKind::kSubgrids;
        result.count = items.size();
        result.data.assign(
            reinterpret_cast<const char*>(subgrids_.data()),
            items.size() * static_cast<std::size_t>(kNrPolarizations) * n *
                n * sizeof(cfloat));
      }
      write_frame(out_fd, MsgType::kGroupResult, encode_group_result(result));
    }
  }

 private:
  GridJobMsg job_;
  Processor proc_;
  CancelToken token_;
  CancelScope scope_;
  ScrubbedVisibilities scrubbed_;
  Array4D<cfloat> subgrids_;
  KernelData data_;
};

/// One decoded degridding job. Each shard assignment runs one supervised
/// full-plan degrid with a skip mask enabling only the shard's groups,
/// into a worker-local scratch cube; the predicted rects are then packed
/// per group in item order (items cover disjoint rects, so the
/// coordinator's scatter is order-insensitive and bit-identical to a
/// single-process degrid).
class DegridJobState {
 public:
  explicit DegridJobState(DegridJobMsg msg)
      : job_(std::move(msg)),
        token_(job_.common.plan.parameters().deadline_ms),
        scope_(token_),
        scrub_(scrub_degrid_plan(job_.common.plan.parameters(),
                                 job_.common.plan, job_.common.flag_view())),
        predicted_(job_.common.uvw.dim(0), job_.common.uvw.dim(1),
                   job_.common.plan.wavenumbers().size()) {
    auto proc = std::make_unique<Processor>(
        job_.common.plan.parameters(),
        resolve_kernel_set(job_.common.kernel_set));
    if (job_.common.worker_retries > 0) {
      SupervisorConfig config;
      config.max_attempts_per_group = job_.common.worker_retries + 1;
      auto resilient =
          std::make_unique<ResilientBackend>(std::move(proc), config);
      resilient_ = resilient.get();
      backend_ = std::move(resilient);
    } else {
      backend_ = std::move(proc);
    }
  }

  JobReadyMsg ready() const {
    return JobReadyMsg{scrub_.report.scrubbed(),
                       scrub_.report.skipped_samples,
                       static_cast<std::uint8_t>(
                           job_.common.flag_view().size() != 0 ? 1 : 0)};
  }

  void run_shard(const ShardAssignMsg& assign, int out_fd,
                 const std::optional<TestDie>& die, std::int64_t& current) {
    const Plan& plan = job_.common.plan;
    IDG_CHECK(assign.group_end <= plan.nr_work_groups(),
              "shard assignment exceeds the plan's work groups");
    current = static_cast<std::int64_t>(assign.group_begin);
    RunControl caller;
    caller.skip_groups = job_.common.skip_groups;

    if (die && die->group >= static_cast<std::int64_t>(assign.group_begin) &&
        die->group < static_cast<std::int64_t>(assign.group_end)) {
      maybe_die_at(die, static_cast<std::size_t>(die->group));
    }

    // Enable only this shard's (non-skipped) groups.
    std::vector<std::uint8_t> mask(plan.nr_work_groups(), 1);
    for (std::size_t g = assign.group_begin; g < assign.group_end; ++g) {
      mask[g] = caller.group_skipped(g) ? 1 : 0;
    }
    RunControl ctl;
    ctl.cancel = &token_;
    ctl.skip_groups = mask;
    if (resilient_ != nullptr) resilient_->reset_report();
    backend_->degrid(plan, job_.common.uvw.cview(), job_.grid.cview(),
                     job_.common.flag_view(), job_.common.aterms.cview(),
                     predicted_.view(), obs::null_sink(), ctl);
    if (resilient_ != nullptr && !resilient_->report().quarantined.empty()) {
      // A group the in-worker supervisor had to quarantine must not be
      // silently dropped from the result: fail the shard and let the
      // coordinator's rebalance/quarantine bookkeeping own the decision.
      throw Error(
          "worker exhausted retries on " +
          std::to_string(resilient_->report().quarantined.size()) +
          " group(s) of shard " + std::to_string(assign.shard));
    }

    for (std::size_t g = assign.group_begin; g < assign.group_end; ++g) {
      current = static_cast<std::int64_t>(g);
      token_.check("shard.worker.degrid", current);
      GroupResultMsg result;
      result.group = g;
      if (scrub_.group_skipped(g) || caller.group_skipped(g)) {
        result.kind = ResultKind::kSkipped;
      } else {
        result.kind = ResultKind::kVisibilities;
        const auto items = plan.work_group(g);
        std::size_t count = 0;
        for (const WorkItem& item : items) count += item.nr_visibilities();
        result.count = count;
        result.data.resize(count * sizeof(Visibility));
        // Pack straight into the frame payload: one row of channels at a
        // time, in item order.
        char* out = result.data.data();
        for (const WorkItem& item : items) {
          const std::size_t row =
              static_cast<std::size_t>(item.nr_channels) * sizeof(Visibility);
          const auto bl = static_cast<std::size_t>(item.baseline);
          const auto c0 = static_cast<std::size_t>(item.channel_begin);
          for (int t = 0; t < item.nr_timesteps; ++t) {
            const auto ts = static_cast<std::size_t>(item.time_begin + t);
            std::memcpy(out, &predicted_(bl, ts, c0), row);
            out += row;
          }
        }
      }
      write_frame(out_fd, MsgType::kGroupResult, encode_group_result(result));
    }
  }

 private:
  DegridJobMsg job_;
  CancelToken token_;
  CancelScope scope_;
  DegridScrub scrub_;
  Array3D<Visibility> predicted_;
  std::unique_ptr<GridderBackend> backend_;
  ResilientBackend* resilient_ = nullptr;
};

/// Applies the job's core budget to this process's OpenMP team; runs
/// before the job's Processor and FFT plans are built.
void apply_thread_budget(const JobCommon& common) {
  omp_set_num_threads(static_cast<int>(common.worker_threads));
}

/// kJobReady, echoing the team size this worker now runs.
void send_ready(int out_fd, JobReadyMsg msg) {
  msg.threads = static_cast<std::uint32_t>(omp_get_max_threads());
  write_frame(out_fd, MsgType::kJobReady, encode_job_ready(msg));
}

int worker_loop(int in_fd, int out_fd) {
  const std::optional<TestDie> die = parse_test_die();
  HelloMsg hello;
  hello.pid = static_cast<std::int32_t>(::getpid());
  write_frame(out_fd, MsgType::kHello, encode_hello(hello));

  std::unique_ptr<GridJobState> grid_job;
  std::unique_ptr<DegridJobState> degrid_job;
  while (std::optional<Frame> frame = read_frame(in_fd)) {
    switch (frame->type) {
      case MsgType::kJobGrid: {
        degrid_job.reset();
        GridJobMsg job = decode_grid_job(std::move(frame->payload));
        apply_thread_budget(job.common);
        grid_job = std::make_unique<GridJobState>(std::move(job));
        send_ready(out_fd, grid_job->ready());
        break;
      }
      case MsgType::kJobDegrid: {
        grid_job.reset();
        DegridJobMsg job = decode_degrid_job(std::move(frame->payload));
        apply_thread_budget(job.common);
        degrid_job = std::make_unique<DegridJobState>(std::move(job));
        send_ready(out_fd, degrid_job->ready());
        break;
      }
      case MsgType::kShardAssign: {
        const ShardAssignMsg assign = decode_shard_assign(frame->payload);
        IDG_CHECK(grid_job != nullptr || degrid_job != nullptr,
                  "shard assignment received before any job setup");
        ShardErrorMsg error;
        error.shard = assign.shard;
        std::int64_t current = -1;
        try {
          if (grid_job != nullptr) {
            grid_job->run_shard(assign, out_fd, die, current);
          } else {
            degrid_job->run_shard(assign, out_fd, die, current);
          }
          write_frame(out_fd, MsgType::kShardDone,
                      encode_shard_done(assign.shard));
          break;
        } catch (const CancelledError& e) {
          error.cancelled = 1;
          error.message = e.what();
        } catch (const WireError&) {
          throw;  // the channel itself is gone — nothing left to report on
        } catch (const std::exception& e) {
          error.message = e.what();
        }
        error.group = current;
        write_frame(out_fd, MsgType::kShardError, encode_shard_error(error));
        break;
      }
      case MsgType::kShutdown:
        return 0;
      default:
        throw Error(std::string("shard worker received an unexpected ") +
                    to_string(frame->type) + " frame");
    }
  }
  return 0;  // coordinator closed the channel: treat like a shutdown
}

}  // namespace

bool is_worker_invocation(int argc, char** argv) {
  return argc >= 2 && std::strcmp(argv[1], kWorkerFlag) == 0;
}

int worker_entry(int in_fd, int out_fd) {
  // IDG_FAULT_WORKER replaces inherited arms; fire counts always reset so
  // every (re)spawned worker replays the identical deterministic schedule.
  fault::Injector::instance().rearm_for_worker();
  try {
    return worker_loop(in_fd, out_fd);
  } catch (const WireError&) {
    // The channel died under us: the coordinator either went away or closed
    // us mid-delivery during its shutdown/rebalance — it owns recovery
    // either way, and a stderr line per torn-down worker is just noise.
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idg-shard-worker[%d]: %s\n",
                 static_cast<int>(::getpid()), e.what());
    return 1;
  }
}

int maybe_run_worker(int argc, char** argv) {
  if (!is_worker_invocation(argc, argv)) return -1;
  return worker_entry();
}

}  // namespace idg::shard
