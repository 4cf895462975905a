#include "harness/trace.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "harness/stats.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::int64_t Tracer::open(const std::string& name, std::int64_t parent,
                          std::uint64_t op) {
  const double t = now();
  std::lock_guard lock(mutex_);
  spans_.push_back(SpanRecord{name, t, t, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t span) {
  const double t = now();
  std::lock_guard lock(mutex_);
  spans_.at(static_cast<std::size_t>(span)).end_s = t;
}

std::int64_t Tracer::add(const std::string& name, double start_s,
                         double end_s, std::int64_t parent, std::uint64_t op) {
  std::lock_guard lock(mutex_);
  spans_.push_back(SpanRecord{name, start_s, end_s, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  os << std::setprecision(9) << "[\n";
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    os << "  {\"id\": " << i << ", \"name\": " << json_quote(s.name)
       << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
       << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans,
                                         std::uint64_t op) {
  std::map<std::size_t, std::vector<Interval>> children;
  for (const SpanRecord& s : spans) {
    if (s.op == op && s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_s, s.end_s});
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.op != op) continue;
    const auto it = children.find(i);
    out[s.name] += self_time({s.start_s, s.end_s},
                             it == children.end() ? std::vector<Interval>{}
                                                  : it->second);
  }
  return out;
}

std::vector<std::uint64_t> ops_with_root(const std::vector<SpanRecord>& spans,
                                         const std::string& root) {
  std::vector<std::uint64_t> ops;
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 && s.name == root) ops.push_back(s.op);
  }
  return ops;
}

double root_seconds(const std::vector<SpanRecord>& spans,
                    const std::string& root, std::uint64_t op) {
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 && s.op == op && s.name == root) {
      return s.end_s - s.start_s;
    }
  }
  return 0.0;
}

}  // namespace perfbench
