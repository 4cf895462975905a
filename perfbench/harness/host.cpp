#include "harness/host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "arch/hostprobe.hpp"
#include "harness/trace.hpp"

namespace perfbench {

namespace {

/// A "Key:   <n> kB" field of /proc/self/status, in KiB (0 if absent).
std::uint64_t status_kib(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return 0;
}

}  // namespace

HostRecord probe_host_record() {
  HostRecord h;
  h.nproc = std::thread::hardware_concurrency();
  const idg::arch::HostCapabilities& caps = idg::arch::probe_host();
  h.fma_per_s = caps.fma_per_second;
  h.sincos_per_s = caps.sincos_per_second;
  h.stream_gbs = caps.mem_bw_gbs;
  const idg::arch::PerfCounterStatus& perf =
      idg::arch::host_perf_counter_status();
  h.perf_event =
      (perf.available ? "available: " : "unavailable: ") + perf.detail;
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  h.llc_bytes = llc > 0 ? static_cast<std::uint64_t>(llc) : 0;
  return h;
}

std::string host_record_json(const HostRecord& host,
                             const std::string& largest_array,
                             std::uint64_t largest_array_bytes) {
  std::ostringstream os;
  os << "{\"nproc\": " << host.nproc << ", \"fma_per_s\": " << host.fma_per_s
     << ", \"sincos_per_s\": " << host.sincos_per_s
     << ", \"stream_gbs\": " << host.stream_gbs
     << ", \"perf_event\": " << json_quote(host.perf_event)
     << ", \"llc_bytes\": " << host.llc_bytes
     << ", \"largest_array\": " << json_quote(largest_array)
     << ", \"largest_array_bytes\": " << largest_array_bytes
     << ", \"largest_array_fits_llc\": "
     << (largest_array_bytes <= host.llc_bytes ? "true" : "false")
     << ", \"bandwidths\": \"computed from array sizes, not measured\"}";
  return os.str();
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mib(std::size_t concurrent_children) {
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  const std::uint64_t kib =
      status_kib("VmHWM") +
      concurrent_children * static_cast<std::uint64_t>(children.ru_maxrss);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
