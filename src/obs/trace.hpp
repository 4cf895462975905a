// Event timeline tracing (DESIGN.md §10).
//
// The aggregate sinks answer "how much time did each stage take in total";
// they cannot show *when* each span ran, on which thread, for which work
// group. TraceSink records the begin/end of every span (stage, thread,
// work-group id) plus counter samples (measured IPC and LLC miss rate when
// hardware counters are live) and exports them as Chrome-trace / Perfetto
// JSON, so a run's stage sequence becomes directly visible on a timeline.
//
// Recording is lock-cheap: each thread appends to its own fixed-capacity
// ring buffer behind a private, essentially uncontended mutex (the owner
// thread is the only writer; the exporter locks each buffer once at the
// end). When a buffer wraps, the oldest events are dropped and counted —
// tracing never blocks or reallocates on the hot path.
//
// One process-global TraceSink can be installed (set_global_trace); when it
// is, every obs::Span emits events automatically. TraceSession is the RAII
// wrapper the benches use for `--trace <path>` / `IDG_TRACE`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace idg::obs {

/// One recorded event. `name` is interned in the owning TraceSink and
/// stays valid for the sink's lifetime.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSpan,     ///< ts_ns = begin, dur_ns = duration, value = work-group id
    kCounter,  ///< ts_ns = sample time, value = gauge value
    kInstant,  ///< ts_ns = event time
  };
  Kind kind = Kind::kInstant;
  const char* name = nullptr;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t value = -1;
};

class TraceSink {
 public:
  /// `capacity_per_thread` bounds each thread's ring buffer; overflowing
  /// drops the *oldest* events (counted per thread).
  explicit TraceSink(std::size_t capacity_per_thread = std::size_t{1} << 16);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Monotonic nanoseconds since this sink's construction.
  std::int64_t now_ns() const;

  /// Interns `name`; the returned pointer is valid for the sink's lifetime
  /// and is what the record_* calls expect (so per-event cost is one
  /// pointer copy, not a string copy).
  const char* intern(std::string_view name);

  /// Records one completed span on the calling thread's track. `group`
  /// tags the work-group id (-1 = none).
  void record_span(const char* name, std::int64_t begin_ns,
                   std::int64_t dur_ns, std::int64_t group = -1);

  /// Records one sample of a named counter track (queue depth, pool
  /// occupancy, ...).
  void record_counter(const char* name, std::int64_t value);

  /// Records a point event on the calling thread's track.
  void record_instant(const char* name);

  /// Names the calling thread's track in the exported timeline.
  void set_thread_name(std::string name);

  /// Snapshot of one thread's track, events oldest-first.
  struct ThreadTrack {
    int tid = 0;
    std::string name;
    std::uint64_t dropped = 0;  ///< events lost to ring-buffer wrap
    std::vector<TraceEvent> events;
  };

  /// Consistent copy of every thread's track (tracks ordered by tid).
  /// Meant to be called after the traced work has joined; events recorded
  /// concurrently with collect() land in either the snapshot or the next.
  std::vector<ThreadTrack> collect() const;

  /// Chrome-trace JSON ({"traceEvents": [...]}): loads in Perfetto and
  /// chrome://tracing. Spans become "X" complete events (one track per
  /// thread), counters "C" counter tracks, timestamps in microseconds.
  void write_chrome_json(std::ostream& os) const;
  void write_chrome_json_file(const std::string& path) const;
  std::string to_chrome_json() const;

 private:
  struct ThreadBuffer;

  ThreadBuffer& local_buffer();

  const std::uint64_t id_;
  const std::size_t capacity_per_thread_;
  const std::int64_t epoch_ns_;
  mutable std::mutex mutex_;  // guards buffers_ and names_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::set<std::string, std::less<>> names_;
};

/// The process-global trace sink, or nullptr when tracing is disabled
/// (the default; the check is one relaxed atomic load).
TraceSink* global_trace();

/// Installs (or, with nullptr, removes) the process-global trace sink.
/// The sink must outlive its installation.
void set_global_trace(TraceSink* sink);

/// RAII session: a non-empty path creates a TraceSink, installs it
/// globally and writes the Chrome-trace JSON to `path` on destruction; an
/// empty path is a disabled no-op session.
class TraceSession {
 public:
  explicit TraceSession(std::string path);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool enabled() const { return sink_ != nullptr; }
  const std::string& path() const { return path_; }
  TraceSink* sink() { return sink_.get(); }

 private:
  std::string path_;
  std::unique_ptr<TraceSink> sink_;
};

}  // namespace idg::obs
