// The daemon workload: an in-process idg-server under a closed loop of two
// client connections, one per tenant, each submitting its next job only
// after the previous one reached its terminal frame.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <mutex>
#include <streambuf>
#include <thread>

#include "harness/jobmix.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "idg/plan.hpp"
#include "obs/export.hpp"
#include "server/client.hpp"
#include "server/job.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace {

using namespace idg;
constexpr std::size_t kClients = 2;

/// Swallows std::cout while alive: the server logs every job there, and
/// the benchmark's stdout should stay readable. Construct before starting
/// the server and destroy after it stopped (no thread may print during the
/// swap).
class SilencedCout {
 public:
  SilencedCout() : saved_(std::cout.rdbuf(&null_)) {}
  ~SilencedCout() { std::cout.rdbuf(saved_); }
  SilencedCout(const SilencedCout&) = delete;
  SilencedCout& operator=(const SilencedCout&) = delete;

 private:
  class NullBuffer : public std::streambuf {
   protected:
    int overflow(int c) override { return c; }
  };
  NullBuffer null_;
  std::streambuf* saved_;
};

struct JobSample {
  double latency_s = 0.0;     ///< submit -> terminal frame
  double queue_wait_s = 0.0;  ///< submit -> first kRunning status frame
  double run_s = 0.0;         ///< kRunning -> terminal frame
  double submit_s = 0.0;      ///< on the tracer's clock (traced phase)
  bool ok = false;
  bool rejected = false;
};

bool same_result(const server::ResultMsg& got,
                 const clean::MajorCycleResult& want) {
  return got.total_components ==
             static_cast<std::uint32_t>(want.total_components) &&
         got.peak_history.size() == want.peak_history.size() &&
         std::memcmp(got.peak_history.data(), want.peak_history.data(),
                     want.peak_history.size() * sizeof(float)) == 0 &&
         same_bytes(got.model_image, want.model_image) &&
         same_bytes(got.residual_image, want.residual_image);
}

/// A running server on its own thread; stop() drains it.
class RunningServer {
 public:
  /// Returns once the server's socket exists; throws when run() failed.
  explicit RunningServer(const server::ServerConfig& config)
      : server_(config), thread_([this] {
          try {
            rc_ = server_.run();
          } catch (const std::exception& e) {
            error_ = e.what();  // read only after join()
          }
          done_.store(true);
        }) {
    while (::access(server_.socket_path().c_str(), F_OK) != 0) {
      if (done_.load()) {
        thread_.join();
        throw std::runtime_error("server did not start: " + error_);
      }
      std::this_thread::yield();
    }
  }
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  /// Drains the server; returns its exit code (0: every accepted job
  /// reached a reported terminal state).
  int stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    return rc_;
  }

  server::Server& server() { return server_; }

 private:
  server::Server server_;
  int rc_ = -1;
  std::atomic<bool> done_{false};
  std::string error_;
  std::thread thread_;
};

/// The socket file appears at bind(), a moment before listen(): a client
/// starting right then is refused, so connecting retries briefly.
void connect_with_retry(server::Client& client) {
  for (int attempt = 1;; ++attempt) {
    try {
      client.connect();
      return;
    } catch (const server::WireError&) {
      if (attempt == 100) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// The closed loop: returns per-job samples and the loop's wall time.
std::vector<JobSample> closed_loop(
    const std::string& socket_path, std::uint64_t seed, double seconds,
    std::size_t first_job, const std::vector<clean::MajorCycleResult>& direct,
    Tracer* tracer, double& wall_s, std::vector<std::string>& errors) {
  std::mutex mutex;
  std::vector<JobSample> samples;
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        server::ClientOptions copts;
        copts.socket_path = socket_path;
        copts.tenant = "tenant" + std::to_string(c);
        copts.timeout_ms = 120000;
        server::Client client(copts);
        connect_with_retry(client);
        for (std::size_t k = first_job; since(t0) < seconds; ++k) {
          const std::size_t idx = job_index(seed, c, k);
          const auto submit = Clock::now();
          const double submit_s = tracer != nullptr ? tracer->now() : 0.0;
          double running_s = -1.0;
          server::SubmitOptions sopts;
          sopts.on_status = [&](const server::StatusMsg& m) {
            if (m.state == server::JobState::kRunning && running_s < 0.0) {
              running_s = since(submit);
            }
          };
          const server::SubmitOutcome out =
              client.submit(job_deck()[idx], sopts);
          JobSample sample;
          sample.latency_s = since(submit);
          sample.queue_wait_s = std::max(running_s, 0.0);
          sample.run_s = sample.latency_s - sample.queue_wait_s;
          sample.submit_s = submit_s;
          sample.rejected = out.rejected;
          sample.ok = !out.rejected &&
                      out.state == server::JobState::kCompleted &&
                      out.result != nullptr && running_s >= 0.0 &&
                      same_result(*out.result, direct[idx]);
          std::lock_guard lock(mutex);
          if (!sample.ok) {
            errors.push_back("job " + std::to_string(out.job) + " (deck spec " +
                             std::to_string(idx) + ") " +
                             (out.rejected ? "rejected: " + out.message
                                           : "did not reproduce the direct "
                                             "run_imaging_job result"));
          }
          samples.push_back(sample);
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(mutex);
        errors.push_back(std::string("client ") + std::to_string(c) +
                         " failed: " + e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  wall_s = since(t0);
  return samples;
}

std::vector<double> pick(const std::vector<JobSample>& samples,
                         double JobSample::*field) {
  std::vector<double> out;
  for (const JobSample& s : samples) {
    if (s.ok) out.push_back(s.*field);
  }
  return out;
}

}  // namespace

RunResult run_daemon_workload(const RunOptions& opt) {
  RunResult r;
  const std::vector<server::JobSpec>& deck = job_deck();

  // Direct runs of every spec in the deck: the byte-identity reference
  // for each daemon job, and the warm-up of the process-wide caches the
  // server's job threads share (FFT plans, tapers).
  std::vector<clean::MajorCycleResult> direct;
  std::vector<double> direct_s;
  std::uint64_t largest = 0;
  for (const server::JobSpec& spec : deck) {
    const auto t0 = Clock::now();
    direct.push_back(server::run_imaging_job(spec, {}));
    direct_s.push_back(since(t0));
    largest = std::max<std::uint64_t>(
        largest, std::uint64_t{4} * spec.grid_size * spec.grid_size *
                     sizeof(cfloat));
  }
  r.largest_array = "job image cube [4][G][G]";
  r.largest_array_bytes = largest;

  server::ServerConfig config;
  config.socket_path = opt.out_dir + "/idg.sock";
  if (config.socket_path.size() >= 100) {
    throw std::invalid_argument("socket path " + config.socket_path +
                                " is too long for a UNIX-domain socket; "
                                "pass a shorter --out");
  }
  config.checkpoint_dir = opt.out_dir;
  // A socket file left by a killed run would pass for a started server.
  std::filesystem::remove(config.socket_path);

  const SilencedCout silenced;

  // Set-up: the dataset simulation and plan of every job workload in the
  // deck (what the server rebuilds per job) plus the server start
  // (construct, bind, listen), repeated so its time is a median; the last
  // server serves the run.
  std::vector<double> setup_s, dataset_s, plan_s, subgrids, vis_per_subgrid;
  std::unique_ptr<RunningServer> running;
  const auto setup_t0 = Clock::now();
  while (setup_s.size() < 5 ||
         (since(setup_t0) < 1.0 && setup_s.size() < 50)) {
    if (running) r.check(running->stop() == 0, "server drain failed");
    running.reset();
    const auto t0 = Clock::now();
    for (const server::JobSpec& spec : deck) {
      auto t = Clock::now();
      const server::JobWorkload w = server::build_job_workload(spec);
      dataset_s.push_back(since(t));
      t = Clock::now();
      const Plan plan(w.params, w.dataset.uvw, w.dataset.frequencies,
                      w.dataset.baselines);
      plan_s.push_back(since(t));
      if (setup_s.empty()) {
        subgrids.push_back(static_cast<double>(plan.nr_subgrids()));
        vis_per_subgrid.push_back(plan.avg_visibilities_per_subgrid());
      }
    }
    running = std::make_unique<RunningServer>(config);
    setup_s.push_back(since(t0));
  }

  std::vector<std::string> errors;
  double wall_s = 0.0;
  const double untraced_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<JobSample> untraced =
      closed_loop(config.socket_path, opt.seed, untraced_budget, 0, direct,
                  nullptr, wall_s, errors);

  Tracer tracer;
  std::vector<JobSample> traced;
  if (opt.trace) {
    double traced_wall_s = 0.0;
    // Continue each client's job sequence where the untraced phase left
    // it; the exact index does not matter, only that the mix is seeded.
    traced = closed_loop(config.socket_path, opt.seed, opt.seconds / 2,
                         untraced.size(), direct, &tracer, traced_wall_s,
                         errors);
  }
  const obs::MetricsSnapshot snapshot = running->server().metrics();
  const int rc = running->stop();
  running.reset();

  // Every error is one failed operation: a job that failed, was rejected
  // or did not reproduce its direct run, or a client whose connection
  // broke before its next job.
  std::uint64_t rejected = 0, ok = 0;
  for (const auto& phase : {std::cref(untraced), std::cref(traced)}) {
    for (const JobSample& s : phase.get()) {
      rejected += s.rejected ? 1 : 0;
      ok += s.ok ? 1 : 0;
    }
  }
  r.attempted = ok + errors.size();
  r.failed = errors.size();
  r.failures = errors;
  r.check(rc == 0, "the server's drain left an accepted job unreported");

  const std::vector<double> latency = pick(untraced, &JobSample::latency_s);
  const double p50 = median_or_zero(latency);
  const double completed = static_cast<double>(latency.size());
  const double jobs_per_s = rate(completed, wall_s);
  const auto tail = tail_percentile(latency);
  r.report = {
      {"job_p50_s", p50, "s"},
      {"job_tail_s", tail ? tail->value : 0.0, "s"},
      {"jobs_per_s", jobs_per_s, "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"jobs", completed, "count"},
  };
  r.notes.push_back(
      tail ? "job_tail_s is p" + std::to_string(tail->percentile) + " of " +
                 std::to_string(latency.size()) + " jobs (" +
                 std::to_string(tail->beyond) + " beyond it)"
           : "job_tail_s: fewer than 11 jobs, no percentile has ten beyond "
             "it");
  r.notes.push_back("closed loop of " + std::to_string(kClients) +
                    " client connections, one per tenant; setup_s is the "
                    "median of " + std::to_string(setup_s.size()) +
                    " set-ups (deck workload rebuild + server start)");
  r.notes.push_back("max_running " + std::to_string(config.max_running) +
                    " jobs, each with an OpenMP team of " +
                    std::to_string(omp_get_max_threads()) + " threads");
  r.end_to_end = {
      {"op_p50_s", p50, "s"},
      {"ops_per_s", jobs_per_s, "1/s"},
      {"setup_s", median(setup_s), "s"},
  };
  if (!opt.trace) return r;

  // Queue wait and run tile each job span exactly, so the daemon has no
  // uncovered remainder to report.
  std::uint64_t op = 0;
  std::vector<double> traced_latency;
  for (const JobSample& s : traced) {
    if (!s.ok) continue;
    const std::int64_t job = tracer.add("job", s.submit_s,
                                        s.submit_s + s.latency_s, -1, op);
    tracer.add("server.queue_wait", s.submit_s, s.submit_s + s.queue_wait_s,
               job, op);
    tracer.add("server.run", s.submit_s + s.queue_wait_s,
               s.submit_s + s.latency_s, job, op);
    traced_latency.push_back(s.latency_s);
    ++op;
  }
  const auto server_stage = snapshot.find("server");
  const double queue_depth_peak =
      server_stage == snapshot.end()
          ? 0.0
          : static_cast<double>(server_stage->second.server.queue_depth_peak);
  const double traced_p50 = median_or_zero(traced_latency);
  r.per_layer = {
      {"sim.dataset_s", median(dataset_s), "s"},
      {"plan.build_s", median(plan_s), "s"},
      {"plan.subgrids", median(subgrids), "count"},
      {"plan.vis_per_subgrid", median(vis_per_subgrid), "count"},
      {"server.queue_wait_p50_s",
       median_or_zero(pick(traced, &JobSample::queue_wait_s)), "s"},
      {"server.run_p50_s", median_or_zero(pick(traced, &JobSample::run_s)),
       "s"},
      {"server.job_direct_s", median(direct_s), "s"},
      {"server.rejected", static_cast<double>(rejected), "count"},
      {"server.queue_depth_peak", queue_depth_peak, "count"},
      {"trace.op_s", traced_p50, "s"},
      {"trace.overhead_s", traced_p50 - p50, "s"},
  };
  r.notes.push_back(std::to_string(traced_latency.size()) +
                    " traced jobs; sim and plan times are the job "
                    "workload rebuild (server::build_job_workload) per deck "
                    "spec; the kernel, FFT, adder and shard layers run "
                    "inside the server and are not traced here");
  tracer.write_json(opt.out_dir + "/spans.json");
  obs::write_json_file(opt.out_dir + "/idg-obs.json", snapshot);
  return r;
}

}  // namespace perfbench
