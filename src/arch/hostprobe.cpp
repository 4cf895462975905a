#include "arch/hostprobe.hpp"

#include <omp.h>

#include <algorithm>
#include <vector>

#include "common/aligned.hpp"
#include "common/timer.hpp"
#include "kernels/vmath.hpp"
#include "obs/perfcounters.hpp"

namespace idg::arch {

namespace {

/// Peak FMA throughput: independent chains of a = a * b + c over SIMD-wide
/// accumulators, replicated across threads.
double measure_fma_rate() {
  constexpr int kLanes = 16;       // two AVX2 registers worth
  constexpr int kChains = 8;       // hide the FMA latency
  constexpr long kIters = 400000;

  double total = 0.0;
  Timer timer;
#pragma omp parallel reduction(+ : total)
  {
    float acc[kChains][kLanes];
    float mul[kLanes], add[kLanes];
    for (int c = 0; c < kChains; ++c)
      for (int l = 0; l < kLanes; ++l) acc[c][l] = 0.001f * (c + l + 1);
    for (int l = 0; l < kLanes; ++l) {
      mul[l] = 1.0000001f;
      add[l] = 1e-7f;
    }
    for (long i = 0; i < kIters; ++i) {
      for (int c = 0; c < kChains; ++c) {
#pragma omp simd
        for (int l = 0; l < kLanes; ++l)
          acc[c][l] = acc[c][l] * mul[l] + add[l];
      }
    }
    float sink = 0.0f;
    for (int c = 0; c < kChains; ++c)
      for (int l = 0; l < kLanes; ++l) sink += acc[c][l];
    total += static_cast<double>(sink);  // defeat dead-code elimination
  }
  const double seconds = timer.seconds();
  const double fmas = static_cast<double>(kIters) * kChains * kLanes *
                      omp_get_max_threads();
  (void)total;
  return fmas / seconds;
}

/// Vectorized sincos throughput of the vmath library.
double measure_sincos_rate() {
  constexpr std::size_t kBatch = 4096;
  constexpr int kReps = 400;

  double total = 0.0;
  Timer timer;
#pragma omp parallel reduction(+ : total)
  {
    AlignedVector<float> x(kBatch), s(kBatch), c(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      x[i] = 0.37f * static_cast<float>(i % 1000);
    for (int r = 0; r < kReps; ++r) {
      vmath::sincos_batch(kBatch, x.data(), s.data(), c.data());
      x[r % kBatch] += s[r % kBatch] * 1e-9f;  // serialize reps
    }
    total += static_cast<double>(s[0] + c[1]);
  }
  const double seconds = timer.seconds();
  (void)total;
  return static_cast<double>(kBatch) * kReps * omp_get_max_threads() /
         seconds;
}

/// Streaming bandwidth: triad over buffers far larger than LLC.
double measure_mem_bw() {
  const std::size_t n = 16 * 1024 * 1024;  // 64 MB per float buffer
  std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 3.0f);
  // Warm-up + measure best of 3.
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 0.5f * c[i];
    const double seconds = timer.seconds();
    const double bytes = 3.0 * static_cast<double>(n) * sizeof(float);
    best = std::max(best, bytes / seconds);
  }
  return best;
}

}  // namespace

const HostCapabilities& probe_host() {
  static const HostCapabilities caps = [] {
    HostCapabilities c;
    c.nr_threads = omp_get_max_threads();
    c.fma_per_second = measure_fma_rate();
    c.sincos_per_second = measure_sincos_rate();
    c.mem_bw_gbs = measure_mem_bw() / 1e9;
    return c;
  }();
  return caps;
}

const PerfCounterStatus& host_perf_counter_status() {
  static const PerfCounterStatus status = [] {
    const obs::PerfProbe probe = obs::probe_perf_counters();
    PerfCounterStatus s;
    s.paranoid_level = probe.paranoid_level;
    s.available = probe.available;
    s.detail = probe.detail;
    return s;
  }();
  return status;
}

}  // namespace idg::arch
