// The host record written beside every result, and the peak resident set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

struct HostRecord {
  unsigned nproc = 0;
  double fma_per_s = 0.0;      ///< arch::probe_host, measured in this run
  double sincos_per_s = 0.0;
  double stream_gbs = 0.0;
  std::string perf_event;      ///< counter availability or refusal reason
  std::uint64_t llc_bytes = 0;  ///< last-level cache size (0 if unknown)
};

/// Measures the ceilings (~0.2 s) and reads the cache and counter state.
HostRecord probe_host_record();

/// The record as one JSON object, with the workload's largest array and
/// whether it fits in the last-level cache (so computed bandwidths read
/// as computed).
std::string host_record_json(const HostRecord& host,
                             const std::string& largest_array,
                             std::uint64_t largest_array_bytes);

/// Resets this process's peak-RSS high-water mark to its current RSS
/// (Linux /proc/self/clear_refs "5"), so the host probe's stream buffers
/// do not count. False when the kernel refuses.
bool reset_peak_rss();

/// Peak resident set in MiB: this process's high-water mark plus
/// `concurrent_children` times the largest peak among its terminated
/// children (the shard workers, which live one pool per call).
double peak_rss_mib(std::size_t concurrent_children);

}  // namespace perfbench
