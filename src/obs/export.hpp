// Metric exporters: stable JSON and CSV serializations of a
// MetricsSnapshot.
//
// JSON schema "idg-obs/v9" (pinned by tests/golden/metrics.json; the
// figure benches emit it via --json and downstream plotting consumes it):
//
//   {
//     "schema": "idg-obs/v9",
//     "total_seconds": <number>,
//     "stages": [                       // sorted by stage name
//       {
//         "name": "<stage>",
//         "seconds": <number>,
//         "invocations": <uint>,
//         "moved_bytes": <uint>,        // grid bytes touched (adder/splitter)
//         "scrubbed_samples": <uint>,   // neutralized in place (DESIGN.md §11)
//         "skipped_samples": <uint>,    // dropped with their work group
//         "latency": {                  // log2-bucketed span durations
//           "samples": <uint>,
//           "p50": <number>, "p95": <number>, "p99": <number>,   // seconds
//           "buckets": [                // non-empty buckets only
//             {"le": <upper bound, seconds>, "count": <uint>}, ...
//           ]
//         },
//         "hw": {                       // OMITTED unless counters recorded
//           "samples": <uint>,          // ScopedCounters windows merged
//           "cycles": <uint>, "instructions": <uint>,   // multiplex-scaled
//           "llc_loads": <uint>, "llc_misses": <uint>,
//           "stalled_cycles_backend": <uint>,
//           "task_clock_ns": <uint>,    // never multiplexed (own fd)
//           "llc_miss_bytes": <uint>,   // llc_misses * 64
//           "ipc": <number>, "llc_miss_rate": <number>,
//           "multiplex_fraction": <number>   // running/enabled, 1 = no mux
//         },
//         "ops": {
//           "fma": <uint>, "mul": <uint>, "add": <uint>, "sincos": <uint>,
//           "dev_bytes": <uint>, "shared_bytes": <uint>,
//           "visibilities": <uint>, "total": <uint>, "flops": <uint>
//         }
//       }, ...
//     ]
//   }
//
// "total" and "flops" are derived (paper op definition: FMA = 2 ops,
// sincos = 2 ops; flops excludes the transcendentals). All floating-point
// fields use std::to_chars shortest round-trip form: byte-identical across
// libcs (no locale, no %g double-rounding) and parse back to exactly the
// recorded double. v3 added the latency block and switched from fixed
// 9-decimal to shortest-form numbers; v4 added the data-quality counters
// (scrubbed_samples / skipped_samples, DESIGN.md §11); v6 added the hw
// block of measured perf_event counters (DESIGN.md §15) — present only
// when a PerfCounterSession recorded at least one window, so the export
// stays byte-stable on hosts without counter access. The CSV schema is
// unchanged (hw is JSON-only). v9 removed a recovery counter (JSON field
// and CSV column) that counted switches to a second executor; that
// executor no longer exists.
//
// CSV schema (pinned by tests/golden/metrics.csv): one row per stage,
// sorted by name, with the same fields flattened:
//
//   stage,seconds,invocations,moved_bytes,scrubbed_samples,skipped_samples,
//   latency_samples,p50,p95,p99,
//   fma,mul,add,sincos,dev_bytes,shared_bytes,visibilities,total_ops,flops
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace idg::obs {

/// Shortest round-trip decimal form of `value` (std::to_chars): locale-free
/// and byte-deterministic. Shared by every obs/arch serializer.
std::string format_double(double value);

/// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

void write_json(std::ostream& os, const MetricsSnapshot& snapshot);
void write_csv(std::ostream& os, const MetricsSnapshot& snapshot);

/// Convenience wrappers; throw idg::Error when the file cannot be opened.
void write_json_file(const std::string& path, const MetricsSnapshot& snapshot);
void write_csv_file(const std::string& path, const MetricsSnapshot& snapshot);

/// The serialized forms as strings (used by the golden-file tests).
std::string to_json(const MetricsSnapshot& snapshot);
std::string to_csv(const MetricsSnapshot& snapshot);

}  // namespace idg::obs
