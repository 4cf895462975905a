#include "shard/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/faultinject.hpp"

namespace idg::shard {

namespace {

/// Ceiling on a frame's declared payload size. Real frames top out at one
/// visibility cube (hundreds of MB on production grids); anything above
/// this is a corrupt length field, and rejecting it keeps a bit-flipped
/// header from driving a multi-gigabyte allocation.
constexpr std::uint64_t kMaxFramePayload = std::uint64_t{1} << 34;

void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a worker that died between frames must surface as
    // EPIPE (-> WireError -> respawn), not as a process-wide SIGPIPE.
    ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout(
            "wire protocol send timed out mid-frame (peer stopped draining "
            "its channel)");
      }
      throw WireError("wire protocol write failed: " +
                      std::string(std::strerror(errno)));
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// when `eof_ok` (a clean close at a frame boundary); throws on mid-read
/// EOF, errors, and receive timeouts.
bool read_exact(int fd, void* out, std::size_t size, bool eof_ok = false) {
  char* p = static_cast<char*>(out);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n == 0) {
      if (eof_ok && got == 0) return false;
      throw WireError("wire protocol stream truncated mid-frame (got " +
                      std::to_string(got) + " of " + std::to_string(size) +
                      " bytes)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted by a signal: retry
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw WireTimeout(
            "wire protocol receive timed out mid-frame "
            "(receive deadline exceeded)");
      }
      throw WireError("wire protocol read failed: " +
                      std::string(std::strerror(errno)));
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t frame_crc(std::uint32_t type, std::uint64_t size,
                        std::string_view payload) {
  std::uint32_t crc = crc32(&type, sizeof(type));
  crc = crc32(&size, sizeof(size), crc);
  return crc32(payload.data(), payload.size(), crc);
}

/// The protocol fault sites inject idg::Error; remap to WireError so an
/// injected protocol fault exercises exactly the peer-death recovery path
/// a real torn stream would.
void protocol_fault_point(const char* site, std::uint32_t type) {
  try {
    IDG_FAULT_POINT(site, static_cast<std::int64_t>(type));
  } catch (const WireError&) {
    throw;
  } catch (const Error& e) {
    throw WireError(e.what());
  }
#ifndef IDG_FAULT_INJECTION
  (void)site;
  (void)type;
#endif
}

SealedFrame seal_raw(std::uint32_t type, std::string_view payload) {
  return SealedFrame{type, payload, frame_crc(type, payload.size(), payload)};
}

void write_sealed(int fd, const SealedFrame& frame, const char* fault_site) {
  protocol_fault_point(fault_site, frame.type);
  const auto size = static_cast<std::uint64_t>(frame.payload.size());
  write_all(fd, &frame.type, sizeof(frame.type));
  write_all(fd, &size, sizeof(size));
  write_all(fd, frame.payload.data(), frame.payload.size());
  write_all(fd, &frame.crc, sizeof(frame.crc));
}

void put_string(CheckpointWriter& w, const std::string& s) {
  w.write_pod(static_cast<std::uint64_t>(s.size()));
  w.write_array(s.data(), s.size());
}

std::string get_string(CheckpointReader& r, const char* what) {
  std::uint64_t size = 0;
  r.read_pod(size, what);
  IDG_CHECK(size <= r.remaining(),
            "shard message string length exceeds payload (" << what << ")");
  std::string s(size, '\0');
  r.read_array(s.data(), s.size(), what);
  return s;
}

template <typename T, std::size_t Rank>
void put_array(CheckpointWriter& w, ArrayView<const T, Rank> view) {
  for (std::size_t d = 0; d < Rank; ++d) {
    w.write_pod(static_cast<std::uint64_t>(view.data() == nullptr
                                               ? 0
                                               : view.dim(d)));
  }
  if (view.data() != nullptr) w.write_array(view.data(), view.size());
}

template <typename T, std::size_t Rank>
Array<T, Rank> get_array(CheckpointReader& r, const char* what) {
  std::array<std::size_t, Rank> dims{};
  for (std::size_t d = 0; d < Rank; ++d) {
    std::uint64_t dim = 0;
    r.read_pod(dim, what);
    dims[d] = dim;
  }
  Array<T, Rank> array(dims);
  IDG_CHECK(array.bytes() <= r.remaining(),
            "shard message array exceeds payload (" << what << ")");
  r.read_array(array.data(), array.size(), what);
  return array;
}

void put_job_common(CheckpointWriter& w, const Plan& plan,
                    ArrayView<const UVW, 2> uvw,
                    ArrayView<const Jones, 4> aterms, FlagView flags,
                    std::span<const std::uint8_t> skip_groups,
                    const std::string& kernel_set,
                    std::uint32_t worker_retries,
                    std::uint32_t worker_threads) {
  w.write_pod(plan.parameters());
  w.write_pod(static_cast<std::uint64_t>(plan.items().size()));
  w.write_array(plan.items().data(), plan.items().size());
  w.write_pod(static_cast<std::uint64_t>(plan.wavenumbers().size()));
  w.write_array(plan.wavenumbers().data(), plan.wavenumbers().size());
  w.write_pod(static_cast<std::uint64_t>(plan.nr_planned_visibilities()));
  w.write_pod(static_cast<std::uint64_t>(plan.nr_dropped_visibilities()));
  put_array(w, uvw);
  put_array(w, aterms);
  put_array(w, flags);
  w.write_pod(static_cast<std::uint64_t>(skip_groups.size()));
  w.write_array(skip_groups.data(), skip_groups.size());
  put_string(w, kernel_set);
  w.write_pod(worker_retries);
  w.write_pod(worker_threads);
}

JobCommon get_job_common(CheckpointReader& r) {
  Parameters params;
  r.read_pod(params, "job parameters");
  std::uint64_t nr_items = 0;
  r.read_pod(nr_items, "job item count");
  IDG_CHECK(nr_items * sizeof(WorkItem) <= r.remaining(),
            "shard job item count exceeds payload");
  std::vector<WorkItem> items(nr_items);
  r.read_array(items.data(), items.size(), "job items");
  std::uint64_t nr_wavenumbers = 0;
  r.read_pod(nr_wavenumbers, "job wavenumber count");
  IDG_CHECK(nr_wavenumbers * sizeof(float) <= r.remaining(),
            "shard job wavenumber count exceeds payload");
  std::vector<float> wavenumbers(nr_wavenumbers);
  r.read_array(wavenumbers.data(), wavenumbers.size(), "job wavenumbers");
  std::uint64_t planned = 0;
  std::uint64_t dropped = 0;
  r.read_pod(planned, "job planned visibilities");
  r.read_pod(dropped, "job dropped visibilities");
  Plan plan = Plan::from_parts(params, std::move(items),
                               std::move(wavenumbers), planned, dropped);
  auto uvw = get_array<UVW, 2>(r, "job uvw");
  auto aterms = get_array<Jones, 4>(r, "job aterms");
  auto flags = get_array<std::uint8_t, 3>(r, "job flags");
  std::uint64_t nr_skip = 0;
  r.read_pod(nr_skip, "job skip mask size");
  IDG_CHECK(nr_skip <= r.remaining(), "shard job skip mask exceeds payload");
  std::vector<std::uint8_t> skip_groups(nr_skip);
  r.read_array(skip_groups.data(), skip_groups.size(), "job skip mask");
  std::string kernel_set = get_string(r, "job kernel set");
  std::uint32_t worker_retries = 0;
  r.read_pod(worker_retries, "job worker retries");
  std::uint32_t worker_threads = 0;
  r.read_pod(worker_threads, "job worker threads");
  IDG_CHECK(worker_threads >= 1, "shard job carries a zero thread budget");
  return JobCommon{std::move(plan),       std::move(uvw),
                   std::move(aterms),     std::move(flags),
                   std::move(skip_groups), std::move(kernel_set),
                   worker_retries,        worker_threads};
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kJobGrid: return "job-grid";
    case MsgType::kJobDegrid: return "job-degrid";
    case MsgType::kJobReady: return "job-ready";
    case MsgType::kShardAssign: return "shard-assign";
    case MsgType::kGroupResult: return "group-result";
    case MsgType::kShardDone: return "shard-done";
    case MsgType::kShardError: return "shard-error";
    case MsgType::kShutdown: return "shutdown";
  }
  return "unknown";
}

void write_frame_raw(int fd, std::uint32_t type, std::string_view payload,
                     const char* fault_site) {
  write_sealed(fd, seal_raw(type, payload), fault_site);
}

std::optional<RawFrame> read_frame_raw(int fd, const char* fault_site) {
  RawFrame frame;
  if (!read_exact(fd, &frame.type, sizeof(frame.type), /*eof_ok=*/true)) {
    return std::nullopt;
  }
  std::uint64_t size = 0;
  read_exact(fd, &size, sizeof(size));
  if (size > kMaxFramePayload) {
    throw WireError("wire protocol frame declares an implausible payload (" +
                    std::to_string(size) + " bytes): corrupt stream");
  }
  frame.payload.resize(size);
  read_exact(fd, frame.payload.data(), frame.payload.size());
  std::uint32_t crc = 0;
  read_exact(fd, &crc, sizeof(crc));
  if (crc != frame_crc(frame.type, size, frame.payload)) {
    throw WireError("wire protocol CRC mismatch on a type-" +
                    std::to_string(frame.type) + " frame: corrupt stream");
  }
  protocol_fault_point(fault_site, frame.type);
  return frame;
}

void write_frame(int fd, MsgType type, std::string_view payload) {
  write_frame_raw(fd, static_cast<std::uint32_t>(type), payload,
                  "shard.protocol.write");
}

SealedFrame seal_frame(MsgType type, std::string_view payload) {
  return seal_raw(static_cast<std::uint32_t>(type), payload);
}

void write_frame(int fd, const SealedFrame& frame) {
  write_sealed(fd, frame, "shard.protocol.write");
}

std::optional<Frame> read_frame(int fd) {
  std::optional<RawFrame> raw = read_frame_raw(fd, "shard.protocol.read");
  if (!raw) return std::nullopt;
  return Frame{static_cast<MsgType>(raw->type), std::move(raw->payload)};
}

std::string encode_hello(const HelloMsg& msg) {
  CheckpointWriter w;
  w.write_array(kProtocolMagic, 8);
  w.write_pod(msg.version);
  w.write_pod(msg.pid);
  return w.take_payload();
}

HelloMsg decode_hello(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "hello");
  char magic[8];
  r.read_array(magic, 8, "hello magic");
  IDG_CHECK(std::memcmp(magic, kProtocolMagic, 8) == 0,
            "shard hello carries the wrong protocol magic");
  HelloMsg msg;
  r.read_pod(msg.version, "hello version");
  r.read_pod(msg.pid, "hello pid");
  r.finish();
  IDG_CHECK(msg.version == kProtocolVersion,
            "shard protocol version mismatch (worker speaks v"
                << msg.version << ", coordinator v" << kProtocolVersion
                << ") — mixed binaries?");
  return msg;
}

std::string encode_shard_assign(const ShardAssignMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.shard);
  w.write_pod(msg.group_begin);
  w.write_pod(msg.group_end);
  return w.take_payload();
}

ShardAssignMsg decode_shard_assign(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "shard-assign");
  ShardAssignMsg msg;
  r.read_pod(msg.shard, "assign shard id");
  r.read_pod(msg.group_begin, "assign group begin");
  r.read_pod(msg.group_end, "assign group end");
  r.finish();
  IDG_CHECK(msg.group_begin <= msg.group_end,
            "shard assignment has an inverted group range");
  return msg;
}

std::string encode_job_ready(const JobReadyMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.scrubbed);
  w.write_pod(msg.skipped_samples);
  w.write_pod(msg.has_scrub);
  w.write_pod(msg.threads);
  return w.take_payload();
}

JobReadyMsg decode_job_ready(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "job-ready");
  JobReadyMsg msg;
  r.read_pod(msg.scrubbed, "ready scrubbed count");
  r.read_pod(msg.skipped_samples, "ready skipped count");
  r.read_pod(msg.has_scrub, "ready scrub flag");
  r.read_pod(msg.threads, "ready threads");
  r.finish();
  return msg;
}

std::string encode_group_result(const GroupResultMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.group);
  w.write_pod(static_cast<std::uint32_t>(msg.kind));
  w.write_pod(msg.count);
  w.write_array(msg.data.data(), msg.data.size());
  return w.take_payload();
}

GroupResultMsg decode_group_result(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "group-result");
  GroupResultMsg msg;
  r.read_pod(msg.group, "result group");
  std::uint32_t kind = 0;
  r.read_pod(kind, "result kind");
  IDG_CHECK(kind <= static_cast<std::uint32_t>(ResultKind::kSkipped),
            "shard group result carries an unknown kind " << kind);
  msg.kind = static_cast<ResultKind>(kind);
  r.read_pod(msg.count, "result count");
  msg.data.resize(r.remaining());
  r.read_array(msg.data.data(), msg.data.size(), "result data");
  r.finish();
  return msg;
}

std::string encode_shard_done(std::uint64_t shard) {
  CheckpointWriter w;
  w.write_pod(shard);
  return w.take_payload();
}

std::uint64_t decode_shard_done(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "shard-done");
  std::uint64_t shard = 0;
  r.read_pod(shard, "done shard id");
  r.finish();
  return shard;
}

std::string encode_shard_error(const ShardErrorMsg& msg) {
  CheckpointWriter w;
  w.write_pod(msg.shard);
  w.write_pod(msg.group);
  w.write_pod(msg.cancelled);
  put_string(w, msg.message);
  return w.take_payload();
}

ShardErrorMsg decode_shard_error(const std::string& payload) {
  auto r = CheckpointReader::from_payload(payload, "shard-error");
  ShardErrorMsg msg;
  r.read_pod(msg.shard, "error shard id");
  r.read_pod(msg.group, "error group");
  r.read_pod(msg.cancelled, "error cancelled flag");
  msg.message = get_string(r, "error message");
  r.finish();
  return msg;
}

std::string encode_grid_job(const Plan& plan, ArrayView<const UVW, 2> uvw,
                            ArrayView<const Visibility, 3> visibilities,
                            FlagView flags, ArrayView<const Jones, 4> aterms,
                            std::span<const std::uint8_t> skip_groups,
                            const std::string& kernel_set,
                            std::uint32_t worker_retries,
                            std::uint32_t worker_threads) {
  CheckpointWriter w;
  put_job_common(w, plan, uvw, aterms, flags, skip_groups, kernel_set,
                 worker_retries, worker_threads);
  put_array(w, visibilities);
  return w.take_payload();
}

GridJobMsg decode_grid_job(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "job-grid");
  JobCommon common = get_job_common(r);
  auto visibilities = get_array<Visibility, 3>(r, "job visibilities");
  r.finish();
  return GridJobMsg{std::move(common), std::move(visibilities)};
}

std::string encode_degrid_job(const Plan& plan, ArrayView<const UVW, 2> uvw,
                              ArrayView<const cfloat, 3> grid, FlagView flags,
                              ArrayView<const Jones, 4> aterms,
                              std::span<const std::uint8_t> skip_groups,
                              const std::string& kernel_set,
                              std::uint32_t worker_retries,
                              std::uint32_t worker_threads) {
  CheckpointWriter w;
  put_job_common(w, plan, uvw, aterms, flags, skip_groups, kernel_set,
                 worker_retries, worker_threads);
  put_array(w, grid);
  return w.take_payload();
}

DegridJobMsg decode_degrid_job(std::string payload) {
  auto r = CheckpointReader::from_payload(std::move(payload), "job-degrid");
  JobCommon common = get_job_common(r);
  auto grid = get_array<cfloat, 3>(r, "job grid");
  r.finish();
  return DegridJobMsg{std::move(common), std::move(grid)};
}

}  // namespace idg::shard
