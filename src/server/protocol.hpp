// IDGJOB1 — the client <-> server wire protocol of the multi-tenant
// imaging daemon (DESIGN.md §17).
//
// Every message is one length-prefixed, CRC-guarded frame on the server's
// UNIX-domain socket, reusing the generic framing layer of the IDGSHRD1
// shard protocol (shard/protocol.hpp — write_frame_raw/read_frame_raw)
// and its failure taxonomy: every channel-level problem throws WireError,
// and a receive/send timeout (SO_RCVTIMEO/SO_SNDTIMEO on the connection)
// throws WireTimeout. The server treats a WireError on a client connection
// as a disconnect: an in-flight job of that connection is cancelled and
// accounted, never silently dropped.
//
// Connection lifecycle: client-hello / server-hello, then either one
// submit (accepted|rejected, a stream of status frames, and a terminal
// result|job-failed frame) or a stats request. Payloads reuse the
// CheckpointWriter/CheckpointReader byte codec with named truncation
// errors, exactly like IDGSHRD1 and the IDGCKPT1 checkpoint files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/array.hpp"
#include "common/types.hpp"
#include "shard/protocol.hpp"

namespace idg::server {

// The channel failure taxonomy is shared with the shard protocol.
using shard::RawFrame;
using shard::WireError;
using shard::WireTimeout;

inline constexpr const char* kJobMagic = "IDGJOB1";  // 7 chars + NUL = 8 bytes
inline constexpr std::uint32_t kJobProtocolVersion = 1;

enum class MsgType : std::uint32_t {
  kClientHello = 1,  ///< C->S: magic, version, tenant name
  kServerHello = 2,  ///< S->C: magic, version, draining flag
  kSubmit = 3,       ///< C->S: JobSpec
  kAccepted = 4,     ///< S->C: job id + queue position
  kRejected = 5,     ///< S->C: named admission rejection
  kStatus = 6,       ///< S->C: job state transition / cycle progress
  kResult = 7,       ///< S->C: terminal success — images + clean summary
  kJobFailed = 8,    ///< S->C: terminal failure/cancel/checkpoint report
  kCancel = 9,       ///< C->S: cancel a job (0 = this connection's job)
  kStats = 10,       ///< C->S: request the server metrics snapshot
  kStatsReply = 11,  ///< S->C: idg-obs/v9 JSON string
};

const char* to_string(MsgType type);

/// Why the admission controller refused a job. Every reason surfaces as a
/// named error message and a counter in the `server` metrics block.
enum class RejectReason : std::uint32_t {
  kQueueFull = 0,          ///< bounded job queue at capacity
  kQuotaInFlight = 1,      ///< tenant's in-flight job quota exhausted
  kQuotaVisibilities = 2,  ///< tenant's in-flight visibility quota exhausted
  kDraining = 3,           ///< server is draining, admission stopped
  kBadJob = 4,             ///< spec validation / protocol misuse
};

const char* to_string(RejectReason reason);

enum class JobState : std::uint32_t {
  kQueued = 0,
  kRunning = 1,
  kCompleted = 2,
  kFailed = 3,
  kCancelled = 4,
  kCheckpointed = 5,  ///< drained mid-run with a resumable IDGCKPT1 snapshot
};

const char* to_string(JobState state);

/// What a client submits: the full description of one imaging job. The
/// server rebuilds the deterministic benchmark workload from it
/// (server/job.hpp), so a completed job's images are byte-identical to a
/// single-shot `imaging_cycle` run with the same knobs.
struct JobSpec {
  std::int32_t nr_stations = 8;
  std::int32_t nr_timesteps = 24;
  std::int32_t nr_channels = 4;
  std::uint32_t grid_size = 256;
  std::uint32_t nr_cycles = 2;
  /// Per-work-group attempts of the job's ResilientBackend (0 = no
  /// supervision wrapper).
  std::uint32_t retries = 0;
  /// Job deadline, counted from ADMISSION — a job that waits in the queue
  /// past its deadline is cancelled before it ever starts. 0 = none.
  std::uint32_t deadline_ms = 0;
  /// Snapshot after every major cycle; a drain then reports the job
  /// checkpointed instead of failed, resumable via resume_job.
  std::uint8_t checkpoint = 0;
  /// Resume from the checkpoint a previous job with this id left behind
  /// (requires the server's checkpoint dir to still hold it). 0 = fresh.
  std::uint64_t resume_job = 0;

  /// Visibilities this job admits into the system (the unit of the
  /// per-tenant visibility quota): baselines x timesteps x channels.
  std::uint64_t nr_visibilities() const;

  /// Throws a named idg::Error when the spec is degenerate or implausibly
  /// large (admission must reject it, not the job thread minutes later).
  void validate() const;
};

struct ClientHelloMsg {
  std::uint32_t version = kJobProtocolVersion;
  std::string tenant;
};

struct ServerHelloMsg {
  std::uint32_t version = kJobProtocolVersion;
  std::uint8_t draining = 0;
};

struct AcceptedMsg {
  std::uint64_t job = 0;
  std::uint64_t queue_position = 0;  ///< jobs queued ahead at admission
};

struct RejectedMsg {
  RejectReason reason = RejectReason::kBadJob;
  std::string message;
};

struct StatusMsg {
  std::uint64_t job = 0;
  JobState state = JobState::kQueued;
  std::string detail;
};

struct ResultMsg {
  std::uint64_t job = 0;
  std::uint32_t total_components = 0;
  std::vector<float> peak_history;
  Array3D<cfloat> model_image;
  Array3D<cfloat> residual_image;
};

struct JobFailedMsg {
  std::uint64_t job = 0;
  JobState state = JobState::kFailed;  ///< kFailed, kCancelled, kCheckpointed
  std::string message;
  /// When state == kCheckpointed: resubmit with JobSpec::resume_job set to
  /// this id to continue from the drained snapshot.
  std::uint64_t checkpoint_job = 0;
};

struct CancelMsg {
  std::uint64_t job = 0;  ///< 0 = whatever job this connection submitted
};

std::string encode_client_hello(const ClientHelloMsg& msg);
ClientHelloMsg decode_client_hello(const std::string& payload);
std::string encode_server_hello(const ServerHelloMsg& msg);
ServerHelloMsg decode_server_hello(const std::string& payload);
std::string encode_job_spec(const JobSpec& spec);
JobSpec decode_job_spec(const std::string& payload);
std::string encode_accepted(const AcceptedMsg& msg);
AcceptedMsg decode_accepted(const std::string& payload);
std::string encode_rejected(const RejectedMsg& msg);
RejectedMsg decode_rejected(const std::string& payload);
std::string encode_status(const StatusMsg& msg);
StatusMsg decode_status(const std::string& payload);
std::string encode_result(const ResultMsg& msg);
ResultMsg decode_result(std::string payload);
std::string encode_job_failed(const JobFailedMsg& msg);
JobFailedMsg decode_job_failed(const std::string& payload);
std::string encode_cancel(const CancelMsg& msg);
CancelMsg decode_cancel(const std::string& payload);

/// Writes one IDGJOB1 frame. Catalogued fault site: "server.protocol.write"
/// (index = message type), remapped to WireError like the shard protocol's
/// sites so an injected fault takes the exact client-disconnect path.
void write_message(int fd, MsgType type, std::string_view payload);

/// Reads one IDGJOB1 frame (nullopt on clean EOF at a frame boundary).
/// Catalogued fault site: "server.protocol.read" (index = message type).
std::optional<RawFrame> read_message(int fd);

}  // namespace idg::server
