// What one benchmark run measures and reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/array.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// memcmp-identical arrays.
template <typename T, std::size_t R>
bool same_bytes(const idg::Array<T, R>& a, const idg::Array<T, R>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured loop
  bool trace = false;
  std::string out_dir;    ///< span file, idg-obs snapshot, host record
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< operations plus correctness checks
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  /// The gated metrics of the untraced run (BENCHMARK.json end_to_end).
  std::vector<Metric> end_to_end;
  /// The traced run's layer metrics (BENCHMARK.json per_layer).
  std::vector<Metric> per_layer;
  /// Every metric of the benchmark's vocabulary that applies to this
  /// workload, printed by name and unit (cycle_s, job_tail_s, ...).
  std::vector<Metric> report;
  std::vector<std::string> notes;
  std::string largest_array;
  std::uint64_t largest_array_bytes = 0;
  /// Child processes alive at once (the shard worker pool), for the peak
  /// resident set.
  std::size_t concurrent_children = 0;

  /// Counts one attempted operation or check; a false `ok` records it
  /// as failed with `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

/// wide-field, dense-vis and sharded: timed imaging cycles.
RunResult run_cycle_workload(const RunOptions& options);

/// daemon: a closed loop of jobs through an in-process server.
RunResult run_daemon_workload(const RunOptions& options);

}  // namespace perfbench
