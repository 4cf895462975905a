// The canonical snapshot pinned by tests/golden/metrics.{json,csv}.
//
// Shared between test_obs.cpp (which compares the serializers' output to
// the checked-in goldens byte-for-byte) and regen_goldens.cpp (the
// `make regen-goldens` tool that rewrites them after an intentional schema
// change). Keeping the fixture in one header guarantees the regenerated
// files pin exactly what the test checks.
#pragma once

#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace idg::testgolden {

/// Deterministic fixture: one bulk-recorded stage (no latency samples) and
/// one single-span stage (exactly one histogram sample), so the goldens
/// pin both shapes of the idg-obs/v9 latency block, plus non-zero
/// data-quality counters on both stages (the v4 addition), non-zero
/// recovery counters (the v5 addition — the resilient supervisor's
/// record_recovery channel), non-zero shard coordination counters (the
/// v7 addition — the multi-process coordinator's record_shard channel)
/// and non-zero multi-tenant server counters (the v8 addition — the
/// idg-server daemon's record_server channel, omitted-when-empty like the
/// v6 hw block, which the fixture deliberately never records).
inline obs::MetricsSnapshot golden_snapshot() {
  obs::AggregateSink sink;
  sink.record("gridder", 1.5, 3);
  sink.record("adder", 0.25);
  sink.record_bytes("adder", 786432);
  sink.record_data_quality("gridder", 7, 0);
  sink.record_data_quality("adder", 0, 128);
  sink.record_recovery("supervisor", 2, 1);
  obs::ShardCounters shard;
  shard.workers_spawned = 4;
  shard.workers_respawned = 1;
  shard.shards_dispatched = 9;
  shard.shards_rebalanced = 2;
  shard.shards_quarantined = 1;
  shard.merge_seconds = 0.125;
  sink.record_shard("shard", shard);
  obs::ServerCounters server;
  server.jobs_admitted = 6;
  server.jobs_rejected = 3;
  server.queue_full_rejections = 1;
  server.quota_rejections = 2;
  server.jobs_completed = 3;
  server.jobs_failed = 1;
  server.jobs_cancelled = 1;
  server.jobs_checkpointed = 1;
  server.queue_depth_peak = 4;
  server.drain_timeouts = 1;
  server.drained = 1;
  sink.record_server("server", server);
  OpCounts ops;
  ops.fma = 17;
  ops.mul = 8;
  ops.add = 4;
  ops.sincos = 1;
  ops.dev_bytes = 1024;
  ops.shared_bytes = 2048;
  ops.visibilities = 42;
  sink.record_ops("gridder", ops);
  return sink.snapshot();
}

}  // namespace idg::testgolden
