#include "obs/export.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace idg::obs {

std::string format_double(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  IDG_ASSERT(result.ec == std::errc{}, "to_chars cannot fail on doubles");
  return std::string(buf, result.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          const auto u = static_cast<unsigned char>(c);
          out += "\\u00";
          out += hex[u >> 4];
          out += hex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_latency_json(std::ostream& os, const LatencyHistogram& latency,
                        const char* indent) {
  os << indent << "\"latency\": {\n";
  os << indent << "  \"samples\": " << latency.samples() << ",\n";
  os << indent << "  \"p50\": " << format_double(latency.percentile(0.50))
     << ",\n";
  os << indent << "  \"p95\": " << format_double(latency.percentile(0.95))
     << ",\n";
  os << indent << "  \"p99\": " << format_double(latency.percentile(0.99))
     << ",\n";
  os << indent << "  \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < LatencyHistogram::kNrBuckets; ++b) {
    if (latency.bucket(b) == 0) continue;
    os << (first ? "" : ", ");
    first = false;
    os << "{\"le\": " << format_double(LatencyHistogram::upper_bound_seconds(b))
       << ", \"count\": " << latency.bucket(b) << "}";
  }
  os << "]\n";
  os << indent << "},\n";
}

}  // namespace

void write_json(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\n";
  os << "  \"schema\": \"idg-obs/v9\",\n";
  os << "  \"total_seconds\": " << format_double(total_seconds(snapshot))
     << ",\n";
  os << "  \"stages\": [";
  bool first = true;
  for (const auto& [stage, m] : snapshot) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(stage) << "\",\n";
    os << "      \"seconds\": " << format_double(m.seconds) << ",\n";
    os << "      \"invocations\": " << m.invocations << ",\n";
    os << "      \"moved_bytes\": " << m.moved_bytes << ",\n";
    os << "      \"scrubbed_samples\": " << m.scrubbed_samples << ",\n";
    os << "      \"skipped_samples\": " << m.skipped_samples << ",\n";
    os << "      \"retried_work_groups\": " << m.retried_work_groups << ",\n";
    os << "      \"quarantined_work_groups\": " << m.quarantined_work_groups
       << ",\n";
    write_latency_json(os, m.latency, "      ");
    if (m.hw.any()) {
      // Omitted (not zeroed) when no counters were recorded: flag-free
      // runs and counter-less hosts keep byte-identical output, and the
      // golden fixture never records hw (DESIGN.md §15).
      os << "      \"hw\": {\n";
      os << "        \"samples\": " << m.hw.samples << ",\n";
      os << "        \"cycles\": " << m.hw.cycles << ",\n";
      os << "        \"instructions\": " << m.hw.instructions << ",\n";
      os << "        \"llc_loads\": " << m.hw.llc_loads << ",\n";
      os << "        \"llc_misses\": " << m.hw.llc_misses << ",\n";
      os << "        \"stalled_cycles_backend\": "
         << m.hw.stalled_cycles_backend << ",\n";
      os << "        \"task_clock_ns\": " << m.hw.task_clock_ns << ",\n";
      os << "        \"llc_miss_bytes\": " << m.hw.llc_miss_bytes() << ",\n";
      os << "        \"ipc\": " << format_double(m.hw.ipc()) << ",\n";
      os << "        \"llc_miss_rate\": " << format_double(m.hw.llc_miss_rate())
         << ",\n";
      os << "        \"multiplex_fraction\": "
         << format_double(m.hw.multiplex_fraction()) << "\n";
      os << "      },\n";
    }
    if (m.shard.any()) {
      // Same omission contract as the hw block: single-process runs never
      // record shard counters, so their output stays byte-identical to v6
      // modulo the schema tag (DESIGN.md §16).
      os << "      \"shard\": {\n";
      os << "        \"workers_spawned\": " << m.shard.workers_spawned
         << ",\n";
      os << "        \"workers_respawned\": " << m.shard.workers_respawned
         << ",\n";
      os << "        \"shards_dispatched\": " << m.shard.shards_dispatched
         << ",\n";
      os << "        \"shards_rebalanced\": " << m.shard.shards_rebalanced
         << ",\n";
      os << "        \"shards_quarantined\": " << m.shard.shards_quarantined
         << ",\n";
      os << "        \"merge_seconds\": "
         << format_double(m.shard.merge_seconds) << "\n";
      os << "      },\n";
    }
    if (m.server.any()) {
      // Same omission contract as the hw and shard blocks: runs without an
      // idg-server never record server counters, so their output stays
      // byte-identical to v7 modulo the schema tag (DESIGN.md §17).
      os << "      \"server\": {\n";
      os << "        \"jobs_admitted\": " << m.server.jobs_admitted << ",\n";
      os << "        \"jobs_rejected\": " << m.server.jobs_rejected << ",\n";
      os << "        \"queue_full_rejections\": "
         << m.server.queue_full_rejections << ",\n";
      os << "        \"quota_rejections\": " << m.server.quota_rejections
         << ",\n";
      os << "        \"jobs_completed\": " << m.server.jobs_completed
         << ",\n";
      os << "        \"jobs_failed\": " << m.server.jobs_failed << ",\n";
      os << "        \"jobs_cancelled\": " << m.server.jobs_cancelled
         << ",\n";
      os << "        \"jobs_checkpointed\": " << m.server.jobs_checkpointed
         << ",\n";
      os << "        \"queue_depth_peak\": " << m.server.queue_depth_peak
         << ",\n";
      os << "        \"drain_timeouts\": " << m.server.drain_timeouts
         << ",\n";
      os << "        \"drained\": " << m.server.drained << ",\n";
      os << "        \"accept_failures\": " << m.server.accept_failures
         << "\n";
      os << "      },\n";
    }
    os << "      \"ops\": {\n";
    os << "        \"fma\": " << m.ops.fma << ",\n";
    os << "        \"mul\": " << m.ops.mul << ",\n";
    os << "        \"add\": " << m.ops.add << ",\n";
    os << "        \"sincos\": " << m.ops.sincos << ",\n";
    os << "        \"dev_bytes\": " << m.ops.dev_bytes << ",\n";
    os << "        \"shared_bytes\": " << m.ops.shared_bytes << ",\n";
    os << "        \"visibilities\": " << m.ops.visibilities << ",\n";
    os << "        \"total\": " << m.ops.ops() << ",\n";
    os << "        \"flops\": " << m.ops.flops() << "\n";
    os << "      }\n";
    os << "    }";
  }
  os << (first ? "]\n" : "\n  ]\n");
  os << "}\n";
}

void write_csv(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "stage,seconds,invocations,moved_bytes,scrubbed_samples,"
        "skipped_samples,retried_work_groups,quarantined_work_groups,"
        "latency_samples,p50,p95,p99,"
        "fma,mul,add,sincos,dev_bytes,shared_bytes,visibilities,total_ops,"
        "flops\n";
  for (const auto& [stage, m] : snapshot) {
    os << stage << ',' << format_double(m.seconds) << ',' << m.invocations
       << ',' << m.moved_bytes << ',' << m.scrubbed_samples << ','
       << m.skipped_samples << ',' << m.retried_work_groups << ','
       << m.quarantined_work_groups << ',' << m.latency.samples() << ','
       << format_double(m.latency.percentile(0.50)) << ','
       << format_double(m.latency.percentile(0.95)) << ','
       << format_double(m.latency.percentile(0.99)) << ',' << m.ops.fma << ','
       << m.ops.mul << ',' << m.ops.add << ',' << m.ops.sincos << ','
       << m.ops.dev_bytes << ',' << m.ops.shared_bytes << ','
       << m.ops.visibilities << ',' << m.ops.ops() << ',' << m.ops.flops()
       << '\n';
  }
}

void write_json_file(const std::string& path,
                     const MetricsSnapshot& snapshot) {
  std::ofstream os(path);
  IDG_CHECK(os.good(), "cannot open '" << path << "' for writing");
  write_json(os, snapshot);
}

void write_csv_file(const std::string& path, const MetricsSnapshot& snapshot) {
  std::ofstream os(path);
  IDG_CHECK(os.good(), "cannot open '" << path << "' for writing");
  write_csv(os, snapshot);
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream oss;
  write_json(oss, snapshot);
  return oss.str();
}

std::string to_csv(const MetricsSnapshot& snapshot) {
  std::ostringstream oss;
  write_csv(oss, snapshot);
  return oss.str();
}

}  // namespace idg::obs
