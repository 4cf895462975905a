// Client side of the IDGJOB1 protocol: what the `idg-client` CLI (and the
// server tests, and the CI soak job) use to submit jobs, stream status,
// cancel, and fetch the server's metrics snapshot.
//
// One Client wraps one connection. submit() drives the whole job
// conversation synchronously — accepted/rejected, the status stream, the
// terminal result/failure frame — and can inject the two client-side
// failure modes the soak exercises on a timer: a mid-job kCancel
// (cancel_after_ms) and a hard mid-job disconnect (disconnect_after_ms,
// the "client died" edge the server must absorb without dropping the job).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "server/protocol.hpp"

namespace idg::server {

struct ClientOptions {
  std::string socket_path = "/tmp/idg-server.sock";
  std::string tenant = "default";
  /// SO_RCVTIMEO/SO_SNDTIMEO on the connection; also bounds how long
  /// submit() waits for each frame. 0 = no timeout.
  std::uint32_t timeout_ms = 300000;
};

struct SubmitOptions {
  /// Send a kCancel this long after admission (0 = never).
  std::uint32_t cancel_after_ms = 0;
  /// Hard-close the socket this long after admission (0 = never) — the
  /// deliberate mid-job disconnect. submit() then returns with
  /// disconnected = true and no terminal state.
  std::uint32_t disconnect_after_ms = 0;
  /// Invoked for every status frame as it arrives.
  std::function<void(const StatusMsg&)> on_status;
};

/// Everything submit() can come back with. Exactly one of these holds:
/// rejected (rejection filled in), disconnected (we hung up on purpose),
/// or a terminal state in `state` (kCompleted fills `result`,
/// kCheckpointed fills `checkpoint_job`).
struct SubmitOutcome {
  std::uint64_t job = 0;
  JobState state = JobState::kFailed;
  std::string message;
  bool rejected = false;
  RejectedMsg rejection;
  bool disconnected = false;
  std::uint64_t checkpoint_job = 0;
  std::shared_ptr<ResultMsg> result;
};

class Client {
 public:
  explicit Client(const ClientOptions& options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and exchanges hellos. Throws WireError when the server is
  /// unreachable, idg::Error on a protocol mismatch.
  void connect();

  /// True when the server-hello announced it is draining.
  bool server_draining() const { return server_draining_; }

  /// Submits `spec` and drives the conversation to its end (see
  /// SubmitOutcome). Throws WireError when the server dies mid-stream.
  SubmitOutcome submit(const JobSpec& spec, const SubmitOptions& options = {});

  /// Fetches the server's idg-obs/v9 metrics JSON.
  std::string stats();

  /// Closes the connection (idempotent; the destructor also closes).
  void close();

 private:
  ClientOptions options_;
  int fd_ = -1;
  bool server_draining_ = false;
};

}  // namespace idg::server
