// Sharded-execution suite (ctest label `faults`, DESIGN.md §16).
//
// Pins the multi-process coordinator end to end:
//   1. the IDGSHRD1 wire protocol: framing, CRC/truncation rejection, and
//      job codec round-trip fidelity,
//   2. the shard planner: coverage, contiguity, balance, determinism,
//   3. bit-identity: for any worker count — and any deterministic
//      mid-shard worker kill schedule — the sharded grid/degrid result is
//      memcmp-identical to the single-process run,
//   4. the failure model: respawn + rebalance after a kill, quarantine of
//      a poison shard (== the same run with those groups skip-masked),
//      coordinator-side protocol-fault recovery, and cancellation/drain
//      semantics (a cancelled run never reports a shard complete).
//
// This binary doubles as its own worker: main() dispatches
// shard::maybe_run_worker() before gtest sees argv, so the coordinator's
// default /proc/self/exe worker path re-enters here in worker mode.
// Injection cases GTEST_SKIP unless built with -DIDG_FAULT_INJECTION=ON.
#include <gtest/gtest.h>
#include <omp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "idg/backend.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "obs/sink.hpp"
#include "shard/coordinator.hpp"
#include "shard/planner.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;

// --- fixture (mirrors test_supervisor.cpp) -----------------------------------

struct Setup {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;

  static Setup make(BadSamplePolicy policy = BadSamplePolicy::kZeroAndContinue) {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 32;
    cfg.nr_channels = 4;
    cfg.grid_size = 256;
    cfg.subgrid_size = 16;
    auto ds = sim::make_benchmark_dataset(cfg);

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 4;
    params.work_group_size = 4;  // several work groups to shard
    params.bad_sample_policy = policy;
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms =
        sim::make_identity_aterms(1, cfg.nr_stations, cfg.subgrid_size);
    return {std::move(ds), params, std::move(plan), std::move(aterms)};
  }

  Array3D<cfloat> grid_with(const GridderBackend& backend,
                            obs::MetricsSink& sink = obs::null_sink(),
                            const RunControl& ctl = RunControl{}) const {
    Array3D<cfloat> grid(kNrPolarizations, params.grid_size, params.grid_size);
    backend.grid(plan, ds.uvw.cview(), ds.visibilities.cview(), ds.flag_view(),
                 aterms.cview(), grid.view(), sink, ctl);
    return grid;
  }

  Array3D<Visibility> degrid_with(const GridderBackend& backend,
                                  const Array3D<cfloat>& grid,
                                  obs::MetricsSink& sink = obs::null_sink(),
                                  const RunControl& ctl = RunControl{}) const {
    Array3D<Visibility> vis(ds.visibilities.dim(0), ds.visibilities.dim(1),
                            ds.visibilities.dim(2));
    backend.degrid(plan, ds.uvw.cview(), grid.cview(), ds.flag_view(),
                   aterms.cview(), vis.view(), sink, ctl);
    return vis;
  }
};

template <typename T>
bool bit_identical(const Array3D<T>& a, const Array3D<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

shard::ShardConfig config_for(std::size_t workers, std::size_t shards = 0) {
  shard::ShardConfig sc;
  sc.nr_workers = workers;
  sc.nr_shards = shards;
  sc.heartbeat_ms = 60000;
  return sc;
}

/// RAII: no injection arms leak from one test into the next.
struct DisarmGuard {
  DisarmGuard() { fault::Injector::instance().disarm_all(); }
  ~DisarmGuard() { fault::Injector::instance().disarm_all(); }
};

#define SKIP_WITHOUT_INJECTION()                              \
  if (!fault::compiled_in()) {                                \
    GTEST_SKIP() << "build without -DIDG_FAULT_INJECTION=ON"; \
  }                                                           \
  DisarmGuard disarm_guard

/// RAII environment variable (workers inherit the coordinator's env).
struct EnvGuard {
  std::string name;
  EnvGuard(const char* n, const std::string& value) : name(n) {
    ::setenv(n, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

// --- 1. wire protocol --------------------------------------------------------

TEST(ProtocolTest, FramesRoundTripOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::write_frame(sv[0], shard::MsgType::kHello, "payload bytes");
  shard::write_frame(sv[0], shard::MsgType::kShutdown, "");
  auto a = shard::read_frame(sv[1]);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->type, shard::MsgType::kHello);
  EXPECT_EQ(a->payload, "payload bytes");
  auto b = shard::read_frame(sv[1]);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->type, shard::MsgType::kShutdown);
  EXPECT_TRUE(b->payload.empty());
  ::close(sv[0]);
  EXPECT_FALSE(shard::read_frame(sv[1]).has_value());  // clean EOF
  ::close(sv[1]);
}

TEST(ProtocolTest, CorruptedPayloadFailsTheCrc) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::write_frame(sv[0], shard::MsgType::kGroupResult, "abcdefgh");
  // Flip one payload byte in flight: 4 (type) + 8 (size) puts the payload
  // at offset 12.
  char buf[64];
  const ssize_t got = ::recv(sv[1], buf, sizeof(buf), 0);
  ASSERT_GT(got, 12);
  buf[13] ^= 0x40;
  ASSERT_EQ(::send(sv[0], buf, static_cast<size_t>(got), 0), got);
  EXPECT_THROW((void)shard::read_frame(sv[1]), shard::WireError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ProtocolTest, MidFrameEofIsAWireErrorNotACleanShutdown) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::write_frame(sv[0], shard::MsgType::kHello, "truncate me");
  char buf[64];
  const ssize_t got = ::recv(sv[1], buf, sizeof(buf), 0);
  ASSERT_GT(got, 6);
  ASSERT_EQ(::send(sv[0], buf, 6, 0), 6);  // resend only a prefix
  ::close(sv[0]);                          // ... then die mid-frame
  EXPECT_THROW((void)shard::read_frame(sv[1]), shard::WireError);
  ::close(sv[1]);
}

TEST(ProtocolTest, AbsurdLengthFieldIsRejectedBeforeAllocation) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::uint32_t type = 1;
  const std::uint64_t size = ~0ull;  // 16 EiB "payload"
  char hdr[12];
  std::memcpy(hdr, &type, 4);
  std::memcpy(hdr + 4, &size, 8);
  ASSERT_EQ(::send(sv[0], hdr, sizeof(hdr), 0),
            static_cast<ssize_t>(sizeof(hdr)));
  EXPECT_THROW((void)shard::read_frame(sv[1]), shard::WireError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ProtocolTest, SmallMessageCodecsRoundTrip) {
  shard::HelloMsg hello;
  hello.pid = 4242;
  const auto h = shard::decode_hello(shard::encode_hello(hello));
  EXPECT_EQ(h.pid, 4242);
  EXPECT_EQ(h.version, shard::kProtocolVersion);

  shard::ShardAssignMsg assign{7, 21, 34};
  const auto a = shard::decode_shard_assign(shard::encode_shard_assign(assign));
  EXPECT_EQ(a.shard, 7u);
  EXPECT_EQ(a.group_begin, 21u);
  EXPECT_EQ(a.group_end, 34u);

  shard::GroupResultMsg result;
  result.group = 11;
  result.kind = shard::ResultKind::kSubgrids;
  result.count = 3;
  result.data = std::string("\x01\x02\x00\x03", 4);
  const auto r = shard::decode_group_result(shard::encode_group_result(result));
  EXPECT_EQ(r.group, 11u);
  EXPECT_EQ(r.kind, shard::ResultKind::kSubgrids);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.data, result.data);

  shard::ShardErrorMsg err;
  err.shard = 5;
  err.group = 9;
  err.cancelled = 1;
  err.message = "deadline of 10 ms exceeded";
  const auto e = shard::decode_shard_error(shard::encode_shard_error(err));
  EXPECT_EQ(e.shard, 5u);
  EXPECT_EQ(e.group, 9);
  EXPECT_EQ(e.cancelled, 1);
  EXPECT_EQ(e.message, err.message);

  EXPECT_EQ(shard::decode_shard_done(shard::encode_shard_done(13)), 13u);

  shard::JobReadyMsg ready{12, 34, 1, 3};
  const auto y = shard::decode_job_ready(shard::encode_job_ready(ready));
  EXPECT_EQ(y.scrubbed, 12u);
  EXPECT_EQ(y.skipped_samples, 34u);
  EXPECT_EQ(y.has_scrub, 1);
  EXPECT_EQ(y.threads, 3u);
}

TEST(ProtocolTest, SealedFrameWritesTheSameBytesToEveryPeer) {
  // The coordinator checksums a job frame once and ships it to every
  // worker: each peer must read exactly what an unsealed write sends.
  const std::string payload(100000, 'j');
  const auto sealed = shard::seal_frame(shard::MsgType::kJobGrid, payload);
  for (int peer = 0; peer < 2; ++peer) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::thread writer([&] {
      shard::write_frame(sv[0], sealed);
      shard::write_frame(sv[0], shard::MsgType::kJobGrid, payload);
      ::shutdown(sv[0], SHUT_WR);
    });
    std::string bytes;
    char buf[65536];
    for (ssize_t n; (n = ::read(sv[1], buf, sizeof(buf))) > 0;) {
      bytes.append(buf, static_cast<std::size_t>(n));
    }
    writer.join();
    const std::size_t frame = 4 + 8 + payload.size() + 4;
    ASSERT_EQ(bytes.size(), 2 * frame);
    EXPECT_EQ(bytes.compare(0, frame, bytes, frame, frame), 0);
    ::close(sv[0]);
    ::close(sv[1]);
  }
}

TEST(ProtocolTest, GridJobRoundTripsPlanAndArraysBitExactly) {
  const auto s = Setup::make();
  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  if (!skip.empty()) skip.front() = 1;
  const std::string payload = shard::encode_grid_job(
      s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(), s.ds.flag_view(),
      s.aterms.cview(), skip, "reference", 2, 3);
  const shard::GridJobMsg job = shard::decode_grid_job(payload);

  EXPECT_EQ(job.common.plan.nr_work_groups(), s.plan.nr_work_groups());
  EXPECT_EQ(job.common.plan.nr_planned_visibilities(),
            s.plan.nr_planned_visibilities());
  EXPECT_EQ(job.common.worker_retries, 2u);
  EXPECT_EQ(job.common.worker_threads, 3u);
  EXPECT_EQ(job.common.kernel_set, "reference");
  EXPECT_EQ(job.common.skip_groups, skip);
  ASSERT_EQ(job.common.uvw.size(), s.ds.uvw.size());
  EXPECT_EQ(std::memcmp(job.common.uvw.data(), s.ds.uvw.data(),
                        s.ds.uvw.size() * sizeof(UVW)),
            0);
  ASSERT_EQ(job.visibilities.size(), s.ds.visibilities.size());
  EXPECT_EQ(std::memcmp(job.visibilities.data(), s.ds.visibilities.data(),
                        s.ds.visibilities.size() * sizeof(Visibility)),
            0);
  // Work items must come back in their exact stamped order — the merge
  // cursor's bit-identity depends on it.
  for (std::size_t g = 0; g < s.plan.nr_work_groups(); ++g) {
    const auto mine = s.plan.work_group(g);
    const auto theirs = job.common.plan.work_group(g);
    ASSERT_EQ(mine.size(), theirs.size());
    EXPECT_EQ(std::memcmp(mine.data(), theirs.data(),
                          mine.size() * sizeof(WorkItem)),
              0);
  }
}

// --- 2. shard planner --------------------------------------------------------

TEST(PlannerTest, ShardsPartitionEveryGroupContiguously) {
  const auto s = Setup::make();
  const std::size_t nr_groups = s.plan.nr_work_groups();
  ASSERT_GT(nr_groups, 4u);
  for (const std::size_t n : {1u, 2u, 3u, 5u}) {
    const auto shards = shard::plan_shards(s.plan, n);
    ASSERT_EQ(shards.size(), std::min<std::size_t>(n, nr_groups));
    std::size_t expect_begin = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      EXPECT_EQ(shards[i].id, i);
      EXPECT_EQ(shards[i].group_begin, expect_begin);
      EXPECT_GT(shards[i].group_end, shards[i].group_begin);
      expect_begin = shards[i].group_end;
    }
    EXPECT_EQ(expect_begin, nr_groups);
  }
}

TEST(PlannerTest, MoreShardsThanGroupsCollapsesToOnePerGroup) {
  const auto s = Setup::make();
  const auto shards = shard::plan_shards(s.plan, s.plan.nr_work_groups() + 50);
  ASSERT_EQ(shards.size(), s.plan.nr_work_groups());
  for (const auto& sh : shards) EXPECT_EQ(sh.nr_groups(), 1u);
}

TEST(PlannerTest, PlanningIsDeterministic) {
  const auto s = Setup::make();
  const auto a = shard::plan_shards(s.plan, 4);
  const auto b = shard::plan_shards(s.plan, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group_begin, b[i].group_begin);
    EXPECT_EQ(a[i].group_end, b[i].group_end);
  }
}

// --- 3. bit-identity across worker counts ------------------------------------

TEST(ShardedParityTest, GridIsBitIdenticalForEveryWorkerCount) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    shard::ShardedBackend sharded(s.params, config_for(workers));
    const auto got = s.grid_with(sharded);
    EXPECT_TRUE(bit_identical(expected, got))
        << "grid diverged with " << workers << " worker(s)";
    const auto report = sharded.report();
    EXPECT_EQ(report.counters.workers_respawned, 0u);
    EXPECT_EQ(report.groups_quarantined, 0u);
    // The core budget, read back through each worker's kJobReady echo.
    const auto budget = static_cast<std::uint32_t>(std::max<std::size_t>(
        1, static_cast<std::size_t>(omp_get_max_threads()) / workers));
    ASSERT_FALSE(report.worker_threads.empty());
    EXPECT_LE(report.worker_threads.size(), workers);
    for (const std::uint32_t threads : report.worker_threads) {
      EXPECT_EQ(threads, budget) << workers << " worker(s)";
    }
  }
}

TEST(ShardedParityTest, DegridIsBitIdenticalForEveryWorkerCount) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto grid = s.grid_with(reference);
  const auto expected = s.degrid_with(reference, grid);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    shard::ShardedBackend sharded(s.params, config_for(workers));
    const auto got = s.degrid_with(sharded, grid);
    EXPECT_TRUE(bit_identical(expected, got))
        << "degrid diverged with " << workers << " worker(s)";
  }
}

TEST(ShardedParityTest, CallerSkipMaskMatchesSingleProcessSemantics) {
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 2u);
  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  skip[1] = 1;
  RunControl ctl;
  ctl.skip_groups = skip;

  const Processor reference(s.params);
  const auto expected = s.grid_with(reference, obs::null_sink(), ctl);
  shard::ShardedBackend sharded(s.params, config_for(2));
  const auto got = s.grid_with(sharded, obs::null_sink(), ctl);
  EXPECT_TRUE(bit_identical(expected, got));
}

TEST(ShardedParityTest, ScrubMetricsMatchTheSingleProcessRun) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  obs::AggregateSink single, sharded_sink;
  const auto expected = s.grid_with(reference, single);
  shard::ShardedBackend sharded(s.params, config_for(2));
  const auto got = s.grid_with(sharded, sharded_sink);
  ASSERT_TRUE(bit_identical(expected, got));

  const auto a = single.snapshot();
  const auto b = sharded_sink.snapshot();
  const auto scrub_a = a.find("scrub");
  const auto scrub_b = b.find("scrub");
  ASSERT_NE(scrub_a, a.end());
  ASSERT_NE(scrub_b, b.end());
  EXPECT_EQ(scrub_a->second.scrubbed_samples, scrub_b->second.scrubbed_samples);
  EXPECT_EQ(scrub_a->second.skipped_samples, scrub_b->second.skipped_samples);
  // The coordinator mirrors the analytic op counters of the in-process run.
  EXPECT_EQ(a.at("gridder").ops.ops(), b.at("gridder").ops.ops());
  EXPECT_EQ(a.at("adder").ops.ops(), b.at("adder").ops.ops());
  // And reports its own stage with the counter block.
  ASSERT_NE(b.find("shard"), b.end());
  EXPECT_EQ(b.at("shard").shard.workers_spawned, 2u);
  EXPECT_GE(b.at("shard").shard.shards_dispatched, 1u);
}

// --- 4. failure model --------------------------------------------------------

TEST(ShardFailureTest, DeterministicWorkerKillRebalancesBitIdentically) {
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 3u);
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);

  const std::string marker = temp_path("shard_die_grid");
  std::remove(marker.c_str());
  EnvGuard die("IDG_SHARD_TEST_DIE", "2:" + marker);
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.grid_with(sharded);
  EXPECT_TRUE(bit_identical(expected, got))
      << "grid diverged after a mid-shard SIGKILL";
  const auto report = sharded.report();
  EXPECT_GE(report.counters.workers_respawned, 1u);
  EXPECT_GE(report.counters.shards_rebalanced, 1u);
  EXPECT_EQ(report.groups_quarantined, 0u);
  // The kill really happened, exactly once.
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0);
  std::remove(marker.c_str());
}

TEST(ShardFailureTest, DeterministicWorkerKillDuringDegridToo) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto grid = s.grid_with(reference);
  const auto expected = s.degrid_with(reference, grid);

  const std::string marker = temp_path("shard_die_degrid");
  std::remove(marker.c_str());
  EnvGuard die("IDG_SHARD_TEST_DIE", "1:" + marker);
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.degrid_with(sharded, grid);
  EXPECT_TRUE(bit_identical(expected, got));
  EXPECT_GE(sharded.report().counters.workers_respawned, 1u);
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0);
  std::remove(marker.c_str());
}

TEST(ShardFailureTest, PoisonGroupQuarantinesItsShardLikeASkipMask) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 3u);
  // Persistent fault in group 2, workers only. One group per shard, so the
  // quarantine drops exactly group 2 — the same partial result as a caller
  // skip mask over group 2.
  EnvGuard fault("IDG_FAULT_WORKER", "processor.grid.kernel@2=throw");
  shard::ShardConfig sc = config_for(2, s.plan.nr_work_groups());
  sc.worker_retries = 1;
  sc.max_attempts_per_shard = 2;
  shard::ShardedBackend sharded(s.params, sc);
  const auto got = s.grid_with(sharded);

  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  skip[2] = 1;
  RunControl ctl;
  ctl.skip_groups = skip;
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference, obs::null_sink(), ctl);
  EXPECT_TRUE(bit_identical(expected, got));

  const auto report = sharded.report();
  EXPECT_EQ(report.groups_quarantined, 1u);
  EXPECT_EQ(report.counters.shards_quarantined, 1u);
  ASSERT_EQ(report.quarantined_shards.size(), 1u);
  EXPECT_EQ(report.quarantined_shards.front(), 2u);
}

TEST(ShardFailureTest, CoordinatorSideProtocolFaultsTakeTheRecoveryPath) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  // The coordinator's first frame read throws (injected wire fault): that
  // worker is treated as dead, killed, and its work rebalanced. Workers
  // re-arm from IDG_FAULT_WORKER (unset here), so they stay clean.
  fault::Injector::instance().arm_from_spec("shard.protocol.read=throw:1");
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.grid_with(sharded);
  EXPECT_TRUE(bit_identical(expected, got));
  EXPECT_GE(sharded.report().counters.workers_respawned, 1u);
}

TEST(ShardFailureTest, InjectedWriteFaultsAreSurvivedToo) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  fault::Injector::instance().arm_from_spec("shard.protocol.write=throw:1");
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.grid_with(sharded);
  EXPECT_TRUE(bit_identical(expected, got));
}

TEST(ShardFailureTest, WorkerFaultReArmingIsPidIndependent) {
  SKIP_WITHOUT_INJECTION();
  // rearm_for_worker() REPLACES inherited arms with IDG_FAULT_WORKER and
  // resets fire counts — what a freshly exec'd worker runs first thing.
  auto& injector = fault::Injector::instance();
  injector.arm_from_spec("coordinator.only.site=throw");
  EnvGuard env("IDG_FAULT_WORKER", "shard.protocol.write=throw:1");
  injector.rearm_for_worker();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // The replacement arm fires (as WireError), the inherited one is gone.
  EXPECT_THROW(shard::write_frame(sv[0], shard::MsgType::kHello, "x"),
               shard::WireError);
  EXPECT_NO_THROW(shard::write_frame(sv[0], shard::MsgType::kHello, "x"));
  EXPECT_EQ(injector.fired("coordinator.only.site"), 0u);
  ::close(sv[0]);
  ::close(sv[1]);
}

// --- 5. cancellation and drain -----------------------------------------------

TEST(ShardCancelTest, ExpiredDeadlineCancelsAndNeverCompletesAShard) {
  auto s = Setup::make();
  s.params.deadline_ms = 1;  // expired long before any shard can finish
  shard::ShardedBackend sharded(s.params, config_for(2));
  EXPECT_THROW((void)s.grid_with(sharded), CancelledError);
  // A cancelled run must never report work as complete.
  EXPECT_EQ(sharded.report().shards_completed, 0u);
  EXPECT_EQ(sharded.report().groups_quarantined, 0u);
}

TEST(ShardCancelTest, RequestedDrainAbortsBeforeAnyWork) {
  const auto s = Setup::make();
  shard::ShardedBackend sharded(s.params, config_for(2));
  shard::reset_drain();
  shard::request_drain();
  EXPECT_TRUE(shard::drain_requested());
  EXPECT_THROW((void)s.grid_with(sharded), CancelledError);
  EXPECT_EQ(sharded.report().shards_completed, 0u);
  // reset_drain() rearms: the same backend then runs to completion.
  shard::reset_drain();
  EXPECT_FALSE(shard::drain_requested());
  const Processor reference(s.params);
  EXPECT_TRUE(bit_identical(s.grid_with(reference), s.grid_with(sharded)));
}

TEST(ShardCancelTest, SigtermDrainsBothBackendsWithinDeadline) {
  const auto s = Setup::make();
  shard::install_sigterm_drain();
  shard::reset_drain();
  ASSERT_EQ(::raise(SIGTERM), 0);  // handler: flag + drain-token cancel
  ASSERT_TRUE(shard::drain_requested());
  RunControl ctl;
  ctl.cancel = &shard::drain_token();
  for (const char* name : {"synchronous", "resilient"}) {
    const auto backend = make_backend(name, s.params);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)s.grid_with(*backend, obs::null_sink(), ctl),
                 CancelledError)
        << name;
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(10)) << name;
  }
  shard::reset_drain();
}

// --- respawn backoff --------------------------------------------------------

TEST(RespawnBackoffTest, FirstRespawnAndDisabledBaseAreFree) {
  EXPECT_EQ(shard::respawn_backoff_ms(1, 2, 200), 0u);
  EXPECT_EQ(shard::respawn_backoff_ms(5, 0, 200), 0u);
  EXPECT_EQ(shard::respawn_backoff_ms(0, 2, 200), 0u);
}

TEST(RespawnBackoffTest, GrowsExponentiallyAndStaysUnderTheCap) {
  std::uint32_t previous = 0;
  for (std::uint32_t nth = 2; nth <= 40; ++nth) {
    const std::uint32_t delay = shard::respawn_backoff_ms(nth, 2, 200);
    // min(cap, base << (n-1)) with at least half guaranteed: never more
    // than the cap, never less than half the nominal (capped) value.
    EXPECT_LE(delay, 200u) << "nth=" << nth;
    const std::uint64_t nominal =
        std::min<std::uint64_t>(200, std::uint64_t{2} << (nth - 1));
    EXPECT_GE(delay, nominal / 2) << "nth=" << nth;
    // Monotone non-decreasing until the cap region (jitter may wiggle
    // inside the cap, but the early doubling dominates it).
    if (nth <= 6) {
      EXPECT_GE(delay, previous) << "nth=" << nth;
      previous = delay;
    }
  }
}

TEST(RespawnBackoffTest, DeterministicPerOrdinalButNotLockstep) {
  // Same ordinal -> same delay (resumable, testable); different ordinals
  // inside the cap region -> jitter decorrelates them.
  for (std::uint32_t nth = 2; nth <= 12; ++nth) {
    EXPECT_EQ(shard::respawn_backoff_ms(nth, 2, 200),
              shard::respawn_backoff_ms(nth, 2, 200));
  }
  bool any_difference = false;
  for (std::uint32_t nth = 10; nth < 20; ++nth) {
    if (shard::respawn_backoff_ms(nth, 2, 200) !=
        shard::respawn_backoff_ms(nth + 1, 2, 200)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "capped delays must not be lockstep";
}

// --- EINTR hardening --------------------------------------------------------

TEST(ProtocolTest, FramingSurvivesASignalStormWithoutSaRestart) {
  // A SIGALRM storm with SA_RESTART deliberately OFF makes every blocking
  // read/write on the socketpair eligible for EINTR. The framing layer's
  // retry loops must absorb all of them: no WireError, bit-exact payloads.
  struct sigaction old_action {};
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // NO SA_RESTART: force EINTR on blocked syscalls
  ASSERT_EQ(::sigaction(SIGALRM, &action, &old_action), 0);
  itimerval storm{};
  storm.it_interval.tv_usec = 500;  // every 0.5 ms
  storm.it_value.tv_usec = 500;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, nullptr), 0);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // A payload much larger than the socket buffer forces many partial
  // writes, each interruptible; the reader thread drains concurrently.
  std::string big(8 << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131) & 0xff);
  }
  std::vector<shard::RawFrame> received;
  std::thread reader([&]() {
    while (auto frame = shard::read_frame_raw(sv[1], "test.eintr.read")) {
      received.push_back(std::move(*frame));
    }
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(
        shard::write_frame_raw(sv[0], 7, big, "test.eintr.write"));
  }
  ::shutdown(sv[0], SHUT_WR);
  reader.join();

  itimerval off{};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  ::sigaction(SIGALRM, &old_action, nullptr);

  ASSERT_EQ(received.size(), 4u);
  for (const auto& frame : received) {
    EXPECT_EQ(frame.type, 7u);
    EXPECT_EQ(frame.payload, big);
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first: the coordinator under test re-execs this very
  // binary (/proc/self/exe) with --idg-shard-worker as argv[1].
  if (const int rc = idg::shard::maybe_run_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
