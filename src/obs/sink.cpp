#include "obs/sink.hpp"

namespace idg::obs {

MetricsSink& null_sink() {
  static NullSink sink;
  return sink;
}

void AggregateSink::record(std::string_view stage, double seconds,
                           std::uint64_t invocations) {
  std::lock_guard lock(mutex_);
  StageMetrics& m = metrics_[std::string(stage)];
  m.seconds += seconds;
  m.invocations += invocations;
  if (invocations == 1) m.latency.add(seconds);
}

void AggregateSink::record_ops(std::string_view stage, const OpCounts& ops) {
  std::lock_guard lock(mutex_);
  metrics_[std::string(stage)].ops += ops;
}

void AggregateSink::record_bytes(std::string_view stage, std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  metrics_[std::string(stage)].moved_bytes += bytes;
}

void AggregateSink::record_data_quality(std::string_view stage,
                                        std::uint64_t scrubbed,
                                        std::uint64_t skipped) {
  std::lock_guard lock(mutex_);
  StageMetrics& m = metrics_[std::string(stage)];
  m.scrubbed_samples += scrubbed;
  m.skipped_samples += skipped;
}

void AggregateSink::record_hw(std::string_view stage, const HwCounters& hw) {
  std::lock_guard lock(mutex_);
  metrics_[std::string(stage)].hw += hw;
}

void AggregateSink::record_recovery(std::string_view stage,
                                    std::uint64_t retried,
                                    std::uint64_t quarantined) {
  std::lock_guard lock(mutex_);
  StageMetrics& m = metrics_[std::string(stage)];
  m.retried_work_groups += retried;
  m.quarantined_work_groups += quarantined;
}

void AggregateSink::record_shard(std::string_view stage,
                                 const ShardCounters& shard) {
  std::lock_guard lock(mutex_);
  metrics_[std::string(stage)].shard += shard;
}

void AggregateSink::record_server(std::string_view stage,
                                  const ServerCounters& server) {
  std::lock_guard lock(mutex_);
  metrics_[std::string(stage)].server += server;
}

MetricsSnapshot AggregateSink::snapshot() const {
  std::lock_guard lock(mutex_);
  return metrics_;
}

void AggregateSink::merge(const MetricsSnapshot& other) {
  std::lock_guard lock(mutex_);
  for (const auto& [stage, m] : other) metrics_[stage] += m;
}

double AggregateSink::seconds(const std::string& stage) const {
  std::lock_guard lock(mutex_);
  auto it = metrics_.find(stage);
  return it == metrics_.end() ? 0.0 : it->second.seconds;
}

double AggregateSink::total_seconds() const {
  std::lock_guard lock(mutex_);
  return obs::total_seconds(metrics_);
}

void AggregateSink::clear() {
  std::lock_guard lock(mutex_);
  metrics_.clear();
}

}  // namespace idg::obs
