// Multi-tenant daemon throughput: how fast the idg-server admission queue
// and job executor push small imaging jobs end to end (DESIGN.md §17).
//
// Spins up an in-process Server on a temporary UNIX-domain socket, fires
// --jobs jobs from --tenants concurrent client threads (round-robin tenant
// names), waits for every terminal frame, then drains the server and
// reports jobs/s, visibilities/s, and the admission counters. Every job is
// the deterministic benchmark workload, so this measures the daemon
// machinery (framing, admission, scheduling, result shipping) on top of a
// known imaging cost — compare against a single-shot `imaging_cycle` run
// with the same knobs to see the daemon overhead.
//
//   bench_server [--tenants 3] [--jobs 6] [--max-running 2]
//                [--stations 8] [--time 24] [--channels 4] [--grid 128]
//                [--cycles 1] [--json metrics.json]
//
// --json writes the server's final idg-obs/v9 snapshot (the `server` and
// `server.tenant.*` blocks carry the admission/execution counters).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/report.hpp"
#include "obs/export.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  try {
    Options opts(argc, argv,
                 /*flag_names=*/{"help"},
                 /*known_options=*/
                 {"tenants", "jobs", "max-running", "stations", "time",
                  "channels", "grid", "cycles", "json"});
    if (opts.flag("help")) {
      std::cout << "usage: bench_server [--tenants N] [--jobs N]\n"
                   "  [--max-running N] [--stations N] [--time T]\n"
                   "  [--channels C] [--grid G] [--cycles N] [--json PATH]\n";
      return 0;
    }
    const long nr_tenants = opts.get("tenants", 3L);
    const long nr_jobs = opts.get("jobs", 6L);

    server::JobSpec spec;
    spec.nr_stations = static_cast<std::int32_t>(opts.get("stations", 8L));
    spec.nr_timesteps = static_cast<std::int32_t>(opts.get("time", 24L));
    spec.nr_channels = static_cast<std::int32_t>(opts.get("channels", 4L));
    spec.grid_size = static_cast<std::uint32_t>(opts.get("grid", 128L));
    spec.nr_cycles = static_cast<std::uint32_t>(opts.get("cycles", 1L));
    spec.validate();

    server::ServerConfig config;
    config.socket_path = "/tmp/idg_bench_server." +
                         std::to_string(::getpid()) + ".sock";
    config.max_running =
        static_cast<std::uint64_t>(opts.get("max-running", 2L));
    // The bench wants zero admission rejections: size the queue and quotas
    // to the offered load so every job's latency is measured, not retried.
    config.quotas.max_queue_depth = static_cast<std::uint64_t>(nr_jobs);
    config.quotas.max_inflight_per_tenant =
        static_cast<std::uint64_t>(nr_jobs);

    server::Server server(config);
    std::thread server_thread([&]() { server.run(); });
    while (::access(config.socket_path.c_str(), F_OK) != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    std::cout << "bench_server: " << nr_jobs << " job(s) from " << nr_tenants
              << " tenant(s), max-running " << config.max_running << ", "
              << spec.nr_visibilities() << " visibilities/job, "
              << spec.nr_cycles << " major cycle(s)/job\n";

    std::atomic<long> completed{0};
    std::atomic<long> failed{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (long t = 0; t < nr_tenants; ++t) {
      clients.emplace_back([&, t]() {
        // Tenant t submits jobs t, t + nr_tenants, ... sequentially on one
        // connection each (one job per connection, like idg-client).
        for (long j = t; j < nr_jobs; j += nr_tenants) {
          try {
            server::ClientOptions copts;
            copts.socket_path = config.socket_path;
            copts.tenant = "tenant" + std::to_string(t);
            server::Client client(copts);
            client.connect();
            const server::SubmitOutcome outcome = client.submit(spec);
            if (outcome.state == server::JobState::kCompleted) {
              completed.fetch_add(1, std::memory_order_relaxed);
            } else {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
          } catch (const Error& e) {
            failed.fetch_add(1, std::memory_order_relaxed);
            std::cerr << "bench_server: job failed: " << e.what() << "\n";
          }
        }
      });
    }
    for (auto& thread : clients) thread.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    server.request_stop();
    server_thread.join();

    const obs::MetricsSnapshot snapshot = server.metrics();
    if (opts.has("json")) {
      obs::write_json_file(opts.get("json", std::string{}), snapshot);
    }

    const double vis_total = static_cast<double>(spec.nr_visibilities()) *
                             static_cast<double>(completed.load());
    Table table({"metric", "value"});
    table.row().add("jobs completed").add(static_cast<double>(completed), 0);
    table.row().add("jobs failed").add(static_cast<double>(failed), 0);
    table.row().add("wall time (s)").add(seconds, 3);
    table.row().add("jobs/s").add(completed / seconds, 3);
    table.row()
        .add("MVis/s through the daemon")
        .add(vis_total / seconds / 1e6, 3);
    const auto it = snapshot.find("server");
    if (it != snapshot.end()) {
      table.row()
          .add("queue depth peak")
          .add(static_cast<double>(it->second.server.queue_depth_peak), 0);
    }
    table.print(std::cout);

    if (completed.load() != nr_jobs) {
      std::cerr << "bench_server: " << failed.load() << " of " << nr_jobs
                << " job(s) did not complete\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_server: " << e.what() << "\n";
    return 1;
  }
}
