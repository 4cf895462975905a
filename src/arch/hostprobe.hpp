// Microbenchmarks that measure this host's ceilings at runtime: peak FMA
// throughput, vectorized sincos throughput (our vmath library), and
// streaming memory bandwidth. The results parameterize the "host" Machine
// so measured kernel runs can be placed on the same rooflines as the
// modeled 2017 machines.
#pragma once

#include <string>

namespace idg::arch {

struct HostCapabilities {
  double fma_per_second = 0.0;     ///< measured peak FMA/s (all cores)
  double sincos_per_second = 0.0;  ///< measured vmath sincos/s (all cores)
  double mem_bw_gbs = 0.0;         ///< measured streaming bandwidth
  int nr_threads = 1;
};

/// Runs the microbenchmarks (~0.2 s total). Results are cached after the
/// first call.
const HostCapabilities& probe_host();

/// Hardware perf-counter access on this host (DESIGN.md §15).
struct PerfCounterStatus {
  int paranoid_level = 0;  ///< /proc/sys/kernel/perf_event_paranoid
                           ///  (obs::kPerfParanoidUnknown when unreadable)
  bool available = false;  ///< a counter group actually opened
  std::string detail;      ///< counter list, or the refusal reason
};

/// Probes (and caches) counter availability by opening a trial group via
/// obs::probe_perf_counters(). Reported by bench_table1_machines next to
/// the measured ceilings.
const PerfCounterStatus& host_perf_counter_status();

}  // namespace idg::arch
