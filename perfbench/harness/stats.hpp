// The benchmark's own arithmetic: order statistics, the tail-percentile
// rule, span self time, and the cost models it divides measured times by.
// Kept free of timing so tests/test_stats.cpp can pin every rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the middle pair for an even count).
/// Requires a non-empty sample.
double median(std::vector<double> samples);

/// median(), or 0 for a workload that took no such sample.
double median_or_zero(const std::vector<double>& samples);

/// `amount` per second, or 0 when nothing was timed.
double rate(double amount, double seconds);

/// The highest whole percentile that still has at least `min_beyond`
/// samples ranked beyond it (nearest-rank: the p-th percentile is the
/// sample of rank ceil(p * n / 100)). nullopt when n <= min_beyond.
struct TailPercentile {
  int percentile = 0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked after the percentile's rank
};
std::optional<TailPercentile> tail_percentile(std::vector<double> samples,
                                              std::size_t min_beyond = 10);

/// A closed time interval [begin, end] in seconds.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of `parent` not covered by any of `children` (children may nest
/// in each other, overlap, or stick out of the parent; only the part of
/// their union inside the parent is subtracted).
double self_time(Interval parent, std::vector<Interval> children);

/// Real flops of one 2-D n x n complex FFT under the 5 N log2 N model with
/// N = n * n points.
double fft2d_flops(std::size_t n);

/// Computed bytes the adder moves for `nr_subgrids` subgrids of n x n
/// pixels in 4 polarizations: read the subgrid pixel, read and write the
/// grid pixel (8-byte complex floats). Computed, not measured: it ignores
/// every cache.
std::uint64_t adder_bytes(std::size_t nr_subgrids, std::size_t n);

/// The splitter's computed bytes: read the grid pixel, write the subgrid.
std::uint64_t splitter_bytes(std::size_t nr_subgrids, std::size_t n);

/// 64-bit digest of `bytes` bytes (FNV-1a over 8-byte words): two outputs
/// with equal digests are taken as byte-identical without keeping a copy
/// of the reference in memory.
std::uint64_t digest(const void* data, std::size_t bytes);

}  // namespace perfbench
