// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a program layer, kept in
// memory while the run measures, and written out once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::uint64_t op = 0;      ///< cycle or job id shared by its spans
};

class Tracer {
 public:
  Tracer();

  /// Seconds since construction on the steady clock.
  double now() const;

  /// Opens a span and returns its index (thread-safe).
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::uint64_t op);
  void close(std::int64_t span);

  /// Records an already finished span.
  std::int64_t add(const std::string& name, double start_s, double end_s,
                   std::int64_t parent, std::uint64_t op);

  /// A copy of every span recorded so far.
  std::vector<SpanRecord> spans() const;

  /// Writes the spans as a JSON list.
  void write_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t parent,
             std::uint64_t op)
      : tracer_(tracer), index_(tracer.open(name, parent, op)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// Self time per span name, summed over the spans of operation `op`: each
/// span's length minus the part its direct children cover.
std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans,
                                         std::uint64_t op);

/// Ids of the operations that have a root span named `root`, in order.
std::vector<std::uint64_t> ops_with_root(const std::vector<SpanRecord>& spans,
                                         const std::string& root);

/// `s` as a JSON string literal (quotes and backslashes escaped, control
/// characters dropped).
std::string json_quote(const std::string& s);

/// Length of the root span named `root` of operation `op` (0 when absent).
double root_seconds(const std::vector<SpanRecord>& spans,
                    const std::string& root, std::uint64_t op);

}  // namespace perfbench
