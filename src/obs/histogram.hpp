// Log-bucketed latency histograms (DESIGN.md §10).
//
// Per-stage wall-time *totals* (StageMetrics::seconds) cannot distinguish a
// stage that is uniformly slow from one with a long tail — and the tail is
// what a deadline or a server's job latency feels first. LatencyHistogram
// records every completed span into fixed base-2 buckets so the exporters
// can surface p50/p95/p99 per stage deterministically:
//
//   * bucket 0 holds zero-length samples; bucket b >= 1 holds durations in
//     [2^(b-1), 2^b) nanoseconds; the last bucket absorbs everything above
//     2^(kNrBuckets-2) ns (~ 19.5 h). Boundaries are fixed at compile time,
//     so histograms from different runs, threads or processes merge without
//     rebinning and the merge is associative and commutative.
//   * percentiles interpolate linearly inside the owning bucket — a pure
//     function of the bucket counts, hence byte-stable in the exporters.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace idg::obs {

class LatencyHistogram {
 public:
  /// Bucket kNrBuckets-1 is the overflow bucket: its nominal upper bound is
  /// 2^47 ns but it counts every longer sample too.
  static constexpr std::size_t kNrBuckets = 48;

  /// Bucket index for a duration in nanoseconds (0 ns -> bucket 0;
  /// [2^(b-1), 2^b) ns -> bucket b; clamped to the overflow bucket).
  static constexpr std::size_t bucket_of_ns(std::uint64_t ns) {
    if (ns == 0) return 0;
    return std::min<std::size_t>(kNrBuckets - 1,
                                 static_cast<std::size_t>(std::bit_width(ns)));
  }

  /// Bucket index for a duration in seconds (truncated to whole ns).
  static std::size_t bucket_of_seconds(double seconds) {
    if (!(seconds > 0.0)) return 0;
    const double ns = seconds * 1e9;
    if (ns >= 9.0e18) return kNrBuckets - 1;  // above any bucket boundary
    return bucket_of_ns(static_cast<std::uint64_t>(ns));
  }

  /// Inclusive lower / exclusive upper bucket bounds in nanoseconds. Both
  /// are exact powers of two (exactly representable as doubles), so the
  /// derived second-valued bounds are deterministic across platforms.
  static constexpr std::uint64_t lower_bound_ns(std::size_t bucket) {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
  }
  static constexpr std::uint64_t upper_bound_ns(std::size_t bucket) {
    return std::uint64_t{1} << bucket;
  }
  static double lower_bound_seconds(std::size_t bucket) {
    return static_cast<double>(lower_bound_ns(bucket)) / 1e9;
  }
  static double upper_bound_seconds(std::size_t bucket) {
    return static_cast<double>(upper_bound_ns(bucket)) / 1e9;
  }

  /// Adds one observed duration.
  void add(double seconds) {
    ++buckets_[bucket_of_seconds(seconds)];
    ++count_;
  }

  /// Number of recorded samples.
  std::uint64_t samples() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Count in one bucket.
  std::uint64_t bucket(std::size_t index) const { return buckets_[index]; }

  /// Quantile q in [0, 1], linearly interpolated inside the owning bucket;
  /// 0 for an empty histogram. Deterministic: a pure function of the
  /// bucket counts.
  double percentile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    double before = 0.0;
    std::size_t last_nonempty = 0;
    for (std::size_t b = 0; b < kNrBuckets; ++b) {
      const double c = static_cast<double>(buckets_[b]);
      if (c == 0.0) continue;
      last_nonempty = b;
      if (before + c >= target) {
        const double lo = lower_bound_seconds(b);
        const double hi = upper_bound_seconds(b);
        const double f = std::clamp((target - before) / c, 0.0, 1.0);
        return lo + f * (hi - lo);
      }
      before += c;
    }
    return upper_bound_seconds(last_nonempty);
  }

  /// Bucket-wise merge: associative and commutative because the bucket
  /// boundaries are fixed (tested in test_obs).
  LatencyHistogram& operator+=(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kNrBuckets; ++b) buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    return *this;
  }

  friend bool operator==(const LatencyHistogram& a, const LatencyHistogram& b) {
    return a.count_ == b.count_ && a.buckets_ == b.buckets_;
  }

 private:
  std::array<std::uint64_t, kNrBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace idg::obs
