#include "server/protocol.hpp"

#include <cstring>

#include "common/checkpoint.hpp"
#include "common/error.hpp"

namespace idg::server {

namespace {

void put_string(CheckpointWriter& w, const std::string& s) {
  w.write_pod(static_cast<std::uint64_t>(s.size()));
  w.write_array(s.data(), s.size());
}

std::string get_string(CheckpointReader& r, const char* what) {
  std::uint64_t size = 0;
  r.read_pod(size, what);
  IDG_CHECK(size <= r.remaining(),
            "job message string length exceeds payload (" << what << ")");
  std::string s(size, '\0');
  r.read_array(s.data(), s.size(), what);
  return s;
}

void put_image(CheckpointWriter& w, const Array3D<cfloat>& image) {
  for (std::size_t d = 0; d < 3; ++d)
    w.write_pod(static_cast<std::uint64_t>(image.dim(d)));
  w.write_array(image.data(), image.size());
}

Array3D<cfloat> get_image(CheckpointReader& r, const char* what) {
  std::uint64_t dims[3];
  for (auto& d : dims) r.read_pod(d, what);
  Array3D<cfloat> image(dims[0], dims[1], dims[2]);
  IDG_CHECK(image.bytes() <= r.remaining(),
            "job message image exceeds payload (" << what << ")");
  r.read_array(image.data(), image.size(), what);
  return image;
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kClientHello: return "client-hello";
    case MsgType::kServerHello: return "server-hello";
    case MsgType::kSubmit: return "submit";
    case MsgType::kAccepted: return "accepted";
    case MsgType::kRejected: return "rejected";
    case MsgType::kStatus: return "status";
    case MsgType::kResult: return "result";
    case MsgType::kJobFailed: return "job-failed";
    case MsgType::kCancel: return "cancel";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats-reply";
  }
  return "unknown";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return "queue-full";
    case RejectReason::kQuotaInFlight: return "quota-inflight";
    case RejectReason::kQuotaVisibilities: return "quota-visibilities";
    case RejectReason::kDraining: return "draining";
    case RejectReason::kBadJob: return "bad-job";
  }
  return "unknown";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kCheckpointed: return "checkpointed";
  }
  return "unknown";
}

std::uint64_t JobSpec::nr_visibilities() const {
  const auto stations = static_cast<std::uint64_t>(nr_stations);
  const std::uint64_t baselines = stations * (stations - 1) / 2;
  return baselines * static_cast<std::uint64_t>(nr_timesteps) *
         static_cast<std::uint64_t>(nr_channels);
}

void JobSpec::validate() const {
  IDG_CHECK(nr_stations >= 2 && nr_stations <= 512,
            "job spec station count " << nr_stations
                                      << " outside the accepted [2, 512]");
  IDG_CHECK(nr_timesteps >= 1 && nr_timesteps <= 1 << 16,
            "job spec timestep count " << nr_timesteps
                                       << " outside the accepted [1, 65536]");
  IDG_CHECK(nr_channels >= 1 && nr_channels <= 1 << 12,
            "job spec channel count " << nr_channels
                                      << " outside the accepted [1, 4096]");
  IDG_CHECK(grid_size >= 64 && grid_size <= 8192 &&
                (grid_size & (grid_size - 1)) == 0,
            "job spec grid size " << grid_size
                                  << " is not a power of two in [64, 8192]");
  IDG_CHECK(nr_cycles >= 1 && nr_cycles <= 64,
            "job spec major cycle count " << nr_cycles
                                          << " outside the accepted [1, 64]");
  IDG_CHECK(retries <= 16,
            "job spec retry count " << retries << " exceeds the accepted 16");
}

std::string encode_client_hello(const ClientHelloMsg& msg) {
  CheckpointWriter w;
  w.write_array(kJobMagic, 8);
  w.write_pod(msg.version);
  put_string(w, msg.tenant);
  return w.take_payload();
}

ClientHelloMsg decode_client_hello(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "client-hello");
  char magic[8];
  r.read_array(magic, 8, "hello magic");
  IDG_CHECK(std::memcmp(magic, kJobMagic, 8) == 0,
            "job client hello carries the wrong protocol magic");
  ClientHelloMsg msg;
  r.read_pod(msg.version, "hello version");
  msg.tenant = get_string(r, "hello tenant");
  r.finish();
  IDG_CHECK(msg.version == kJobProtocolVersion,
            "job protocol version mismatch (client speaks v"
                << msg.version << ", server v" << kJobProtocolVersion
                << ") — mixed binaries?");
  IDG_CHECK(!msg.tenant.empty() && msg.tenant.size() <= 64,
            "job client hello tenant name must be 1..64 bytes");
  return msg;
}

std::string encode_server_hello(const ServerHelloMsg& msg) {
  CheckpointWriter w;
  w.write_array(kJobMagic, 8);
  w.write_pod(msg.version);
  w.write_pod(msg.draining);
  return w.take_payload();
}

ServerHelloMsg decode_server_hello(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "server-hello");
  char magic[8];
  r.read_array(magic, 8, "hello magic");
  IDG_CHECK(std::memcmp(magic, kJobMagic, 8) == 0,
            "job server hello carries the wrong protocol magic");
  ServerHelloMsg msg;
  r.read_pod(msg.version, "hello version");
  r.read_pod(msg.draining, "hello draining flag");
  r.finish();
  IDG_CHECK(msg.version == kJobProtocolVersion,
            "job protocol version mismatch (server speaks v"
                << msg.version << ", client v" << kJobProtocolVersion
                << ") — mixed binaries?");
  return msg;
}

std::string encode_job_spec(const JobSpec& spec) {
  CheckpointWriter w;
  w.write_pod(spec.nr_stations);
  w.write_pod(spec.nr_timesteps);
  w.write_pod(spec.nr_channels);
  w.write_pod(spec.grid_size);
  w.write_pod(spec.nr_cycles);
  w.write_pod(spec.retries);
  w.write_pod(spec.deadline_ms);
  w.write_pod(spec.checkpoint);
  w.write_pod(spec.resume_job);
  return w.take_payload();
}

JobSpec decode_job_spec(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "submit");
  JobSpec spec;
  r.read_pod(spec.nr_stations, "spec stations");
  r.read_pod(spec.nr_timesteps, "spec timesteps");
  r.read_pod(spec.nr_channels, "spec channels");
  r.read_pod(spec.grid_size, "spec grid size");
  r.read_pod(spec.nr_cycles, "spec cycle count");
  r.read_pod(spec.retries, "spec retries");
  r.read_pod(spec.deadline_ms, "spec deadline");
  r.read_pod(spec.checkpoint, "spec checkpoint flag");
  r.read_pod(spec.resume_job, "spec resume job");
  r.finish();
  return spec;
}

std::string encode_accepted(const AcceptedMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.job);
  w.write_pod(msg.queue_position);
  return w.take_payload();
}

AcceptedMsg decode_accepted(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "accepted");
  AcceptedMsg msg;
  r.read_pod(msg.job, "accepted job id");
  r.read_pod(msg.queue_position, "accepted queue position");
  r.finish();
  return msg;
}

std::string encode_rejected(const RejectedMsg& msg) {
  CheckpointWriter w;
  w.write_pod(static_cast<std::uint32_t>(msg.reason));
  put_string(w, msg.message);
  return w.take_payload();
}

RejectedMsg decode_rejected(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "rejected");
  RejectedMsg msg;
  std::uint32_t reason = 0;
  r.read_pod(reason, "rejection reason");
  IDG_CHECK(reason <= static_cast<std::uint32_t>(RejectReason::kBadJob),
            "job rejection carries an unknown reason " << reason);
  msg.reason = static_cast<RejectReason>(reason);
  msg.message = get_string(r, "rejection message");
  r.finish();
  return msg;
}

namespace {

JobState get_job_state(CheckpointReader& r, const char* what) {
  std::uint32_t state = 0;
  r.read_pod(state, what);
  IDG_CHECK(state <= static_cast<std::uint32_t>(JobState::kCheckpointed),
            "job message carries an unknown state " << state);
  return static_cast<JobState>(state);
}

}  // namespace

std::string encode_status(const StatusMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.job);
  w.write_pod(static_cast<std::uint32_t>(msg.state));
  put_string(w, msg.detail);
  return w.take_payload();
}

StatusMsg decode_status(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "status");
  StatusMsg msg;
  r.read_pod(msg.job, "status job id");
  msg.state = get_job_state(r, "status state");
  msg.detail = get_string(r, "status detail");
  r.finish();
  return msg;
}

std::string encode_result(const ResultMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.job);
  w.write_pod(msg.total_components);
  w.write_pod(static_cast<std::uint64_t>(msg.peak_history.size()));
  w.write_array(msg.peak_history.data(), msg.peak_history.size());
  put_image(w, msg.model_image);
  put_image(w, msg.residual_image);
  return w.take_payload();
}

ResultMsg decode_result(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "result");
  ResultMsg msg;
  r.read_pod(msg.job, "result job id");
  r.read_pod(msg.total_components, "result component count");
  std::uint64_t nr_peaks = 0;
  r.read_pod(nr_peaks, "result peak history length");
  IDG_CHECK(nr_peaks * sizeof(float) <= r.remaining(),
            "job result peak history exceeds payload");
  msg.peak_history.resize(nr_peaks);
  r.read_array(msg.peak_history.data(), msg.peak_history.size(),
               "result peak history");
  msg.model_image = get_image(r, "result model image");
  msg.residual_image = get_image(r, "result residual image");
  r.finish();
  return msg;
}

std::string encode_job_failed(const JobFailedMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.job);
  w.write_pod(static_cast<std::uint32_t>(msg.state));
  put_string(w, msg.message);
  w.write_pod(msg.checkpoint_job);
  return w.take_payload();
}

JobFailedMsg decode_job_failed(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "job-failed");
  JobFailedMsg msg;
  r.read_pod(msg.job, "failed job id");
  msg.state = get_job_state(r, "failed state");
  msg.message = get_string(r, "failure message");
  r.read_pod(msg.checkpoint_job, "failed checkpoint job");
  r.finish();
  return msg;
}

std::string encode_cancel(const CancelMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.job);
  return w.take_payload();
}

CancelMsg decode_cancel(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "cancel");
  CancelMsg msg;
  r.read_pod(msg.job, "cancel job id");
  r.finish();
  return msg;
}

void write_message(int fd, MsgType type, std::string_view payload) {
  shard::write_frame_raw(fd, static_cast<std::uint32_t>(type), payload,
                         "server.protocol.write");
}

std::optional<RawFrame> read_message(int fd) {
  return shard::read_frame_raw(fd, "server.protocol.read");
}

}  // namespace idg::server
