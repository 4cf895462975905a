// The multi-tenant `idg-server` imaging daemon (DESIGN.md §17).
//
// One process, one UNIX-domain socket, many tenants. The daemon accepts
// concurrent IDGJOB1 connections (server/protocol.hpp), pushes every
// submitted job through the admission-controlled queue
// (server/queue.hpp), and executes admitted jobs on worker threads — each
// through its own per-job stack (server/job.hpp): a seeded ResilientBackend
// when the spec asks for retries, a per-job CancelToken created at
// ADMISSION (queue wait counts against the job deadline), and an optional
// IDGCKPT1 checkpoint. Process-wide caches (geometry tables, FFT plans,
// tapers) are shared across jobs by construction — they are thread-safe
// statics inside the kernels.
//
// Architecture: a single poll(2) event loop owns every fd and all queue /
// counter state; job threads communicate back exclusively through an event
// queue plus a self-pipe wake-up. Signals (SIGTERM/SIGINT, when installed)
// only set a flag and write the pipe — the loop does the drain.
//
// The drain contract (proven by the CI soak job): on SIGTERM the server
// stops admission, fails still-queued jobs with a named error, lets
// running jobs finish — or checkpoint, when the job opted in — within
// `drain_deadline_ms`, force-cancels past the deadline, and exits 0 iff
// every accepted job was completed, checkpointed, or reported failed.
// Nothing is ever silently dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "server/queue.hpp"

namespace idg::server {

struct ServerConfig {
  /// UNIX-domain socket path; an existing socket file is replaced.
  std::string socket_path = "/tmp/idg-server.sock";
  QuotaConfig quotas;
  /// Jobs executing concurrently (each on its own thread).
  std::uint64_t max_running = 2;
  /// Drain budget: running jobs get this long to finish or checkpoint
  /// after a stop request before they are force-cancelled (counted as
  /// drain_timeouts; the jobs still terminate and are reported).
  std::uint32_t drain_deadline_ms = 60000;
  /// SO_RCVTIMEO/SO_SNDTIMEO on every client connection: a stalled or
  /// wedged client surfaces as WireTimeout, not a hung server.
  std::uint32_t client_timeout_ms = 30000;
  /// Directory for per-job IDGCKPT1 checkpoints (job<id>.ckpt). Required
  /// for specs with checkpoint/resume_job set; "." by default.
  std::string checkpoint_dir = ".";
  /// When non-empty, write the final idg-obs/v9 metrics here on exit.
  std::string metrics_json_path;
  /// Install SIGTERM+SIGINT handlers that trigger the graceful drain.
  /// The daemon main enables this; in-process tests use request_stop().
  bool install_signal_handlers = false;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop until a stop request completes the drain.
  /// Returns 0 when every accepted job reached a reported terminal state,
  /// 1 otherwise. Throws idg::Error when the socket cannot be set up.
  int run();

  /// Requests the graceful drain from any thread (the in-process
  /// equivalent of SIGTERM). Idempotent.
  void request_stop();

  /// Thread-safe snapshot of the per-tenant admission/execution counters:
  /// stage "server" aggregates all tenants, "server.tenant.<name>" each.
  obs::MetricsSnapshot metrics() const;

  const std::string& socket_path() const { return config_.socket_path; }

 private:
  class Loop;
  ServerConfig config_;
  std::atomic<bool> stop_requested_{false};
  // The self-pipe lives as long as the Server object (created in the
  // constructor, closed in the destructor), so request_stop(), job
  // threads, and the signal handler can write it at any point without
  // racing the event loop's teardown closing the fd under them.
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  Loop* loop_ = nullptr;  // live only inside run()

  friend class Loop;
  mutable std::mutex counters_mutex_;
  obs::ServerCounters total_counters_;
  std::map<std::string, obs::ServerCounters> tenant_counters_;
};

}  // namespace idg::server
