#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double median_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : median(samples);
}

double rate(double amount, double seconds) {
  return seconds > 0.0 ? amount / seconds : 0.0;
}

std::optional<TailPercentile> tail_percentile(std::vector<double> samples,
                                              std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  for (int p = 99; p >= 1; --p) {
    // Nearest rank, computed in integers so 90 * 100 / 100 stays exact.
    const std::size_t rank =
        (static_cast<std::size_t>(p) * n + 99) / 100;
    if (n - rank >= min_beyond) {
      return TailPercentile{p, samples[rank - 1], n - rank};
    }
  }
  return std::nullopt;
}

double self_time(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double run_begin = 0.0, run_end = 0.0;
  bool open = false;
  for (const Interval& c : children) {
    const double b = std::max(c.begin, parent.begin);
    const double e = std::min(c.end, parent.end);
    if (e <= b) continue;
    if (open && b <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = b;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return (parent.end - parent.begin) - covered;
}

double fft2d_flops(std::size_t n) {
  const double points = static_cast<double>(n) * static_cast<double>(n);
  return 5.0 * points * std::log2(points);
}

std::uint64_t adder_bytes(std::size_t nr_subgrids, std::size_t n) {
  return 3ull * nr_subgrids * 4 * n * n * 8;
}

std::uint64_t splitter_bytes(std::size_t nr_subgrids, std::size_t n) {
  return 2ull * nr_subgrids * 4 * n * n * 8;
}

std::uint64_t digest(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull ^ bytes;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

}  // namespace perfbench
