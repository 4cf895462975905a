// perfbench: runs one workload of the repository benchmark and writes its
// result. `perfbench/run.py` builds this binary and is the command to run;
// see BENCHMARK.json for the workloads and metrics.
//
//   perfbench --workload wide-field|dense-vis|sharded|daemon --seed N
//             --seconds S --trace 0|1 --out DIR --result FILE
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// separate, traced run gives the per-layer metrics and writes the span
// file, the program's own idg-obs snapshot and the host record into DIR.
// Exit code 0 only when every correctness check passed.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>

#include "harness/host.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "shard/worker.hpp"

namespace {

using perfbench::Metric;

/// The metric vocabulary of BENCHMARK.json, in its order. A workload that
/// does not exercise a layer reports it as 0.
const std::vector<Metric> kEndToEnd = {
    {"op_p50_s", 0, "s"},
    {"ops_per_s", 0, "1/s"},
    {"setup_s", 0, "s"},
    {"peak_rss_mb", 0, "MiB"},
};
const std::vector<Metric> kPerLayer = {
    {"sim.dataset_s", 0, "s"},
    {"plan.build_s", 0, "s"},
    {"plan.subgrids", 0, "count"},
    {"plan.vis_per_subgrid", 0, "count"},
    {"kernels.gridder_s", 0, "s"},
    {"kernels.degridder_s", 0, "s"},
    {"kernels.gridder_mvis_s", 0, "MVis/s"},
    {"kernels.degridder_mvis_s", 0, "MVis/s"},
    {"kernels.gridder_bound_frac", 0, "ratio"},
    {"kernels.degridder_bound_frac", 0, "ratio"},
    {"subgrid_fft.s", 0, "s"},
    {"subgrid_fft.gflops", 0, "GFLOP/s"},
    {"adder.s", 0, "s"},
    {"splitter.s", 0, "s"},
    {"adder.gbs", 0, "GB/s"},
    {"splitter.gbs", 0, "GB/s"},
    {"grid_fft.s", 0, "s"},
    {"grid_fft.gflops", 0, "GFLOP/s"},
    {"image.correction_s", 0, "s"},
    {"shard.grid_s", 0, "s"},
    {"shard.degrid_s", 0, "s"},
    {"shard.merge_s", 0, "s"},
    {"shard.wait_s", 0, "s"},
    {"shard.shards_dispatched", 0, "count"},
    {"shard.respawned", 0, "count"},
    {"shard.rebalanced", 0, "count"},
    {"server.queue_wait_p50_s", 0, "s"},
    {"server.run_p50_s", 0, "s"},
    {"server.job_direct_s", 0, "s"},
    {"server.rejected", 0, "count"},
    {"server.queue_depth_peak", 0, "count"},
    {"trace.op_s", 0, "s"},
    {"trace.uncovered_s", 0, "s"},
    {"trace.overhead_s", 0, "s"},
};

/// `reported` laid out on `vocabulary`: every name present, in order,
/// missing ones 0. Throws on a name or unit outside the vocabulary.
std::vector<Metric> on_vocabulary(const std::vector<Metric>& vocabulary,
                                  const std::vector<Metric>& reported) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : reported) by_name[m.name] = &m;
  std::vector<Metric> out;
  for (Metric m : vocabulary) {
    const auto it = by_name.find(m.name);
    if (it != by_name.end()) {
      if (it->second->unit != m.unit) {
        throw std::logic_error("metric " + m.name + " reported in " +
                               it->second->unit + ", not " + m.unit);
      }
      m.value = it->second->value;
      by_name.erase(it);
    }
    out.push_back(m);
  }
  if (!by_name.empty()) {
    throw std::logic_error("metric " + by_name.begin()->first +
                           " is not in the vocabulary");
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR --result FILE\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Shard workers re-exec this binary (ShardConfig::worker_path = "").
  if (const int rc = idg::shard::maybe_run_worker(argc, argv); rc >= 0) {
    return rc;
  }

  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "out", "result"}) {
    if (args.count(required) == 0) usage(std::string("missing --") + required);
  }
  perfbench::RunOptions opt;
  opt.workload = args["workload"];
  try {
    opt.seed = std::stoull(args["seed"]);
    opt.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    usage("--seed and --seconds take numbers");
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") usage("--trace is 0 or 1");
  opt.trace = args["trace"] == "1";
  opt.out_dir = args["out"];
  if (opt.workload != "wide-field" && opt.workload != "dense-vis" &&
      opt.workload != "sharded" && opt.workload != "daemon") {
    usage("unknown workload " + opt.workload);
  }
  std::filesystem::create_directories(opt.out_dir);

  // The host probe first, then the peak-RSS mark is reset so its stream
  // buffers do not count.
  const perfbench::HostRecord host = perfbench::probe_host_record();
  const bool rss_reset = perfbench::reset_peak_rss();
  perfbench::RunResult r;
  try {
    r = opt.workload == "daemon" ? perfbench::run_daemon_workload(opt)
                                 : perfbench::run_cycle_workload(opt);
  } catch (const std::exception& e) {
    r.check(false, std::string("workload threw: ") + e.what());
  }
  const double peak_mib = perfbench::peak_rss_mib(r.concurrent_children);
  if (!rss_reset) {
    r.notes.push_back("peak_rss_mb includes the host probe's buffers: the "
                      "kernel refused to reset the high-water mark");
  }
  r.end_to_end.push_back({"peak_rss_mb", peak_mib, "MiB"});
  r.report.push_back({"peak_rss_mb", peak_mib, "MiB"});
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  r.report.push_back({"failed_frac", failed_frac, "ratio"});
  const bool correct = r.failed == 0 && r.attempted > 0;

  const std::string host_json = perfbench::host_record_json(
      host, r.largest_array, r.largest_array_bytes);
  std::ofstream(opt.out_dir + "/host.json") << host_json << "\n";

  std::cout << std::setprecision(6) << "perfbench " << opt.workload
            << " seed " << opt.seed << (opt.trace ? " (traced run)" : "")
            << "\n";
  for (const Metric& m : r.report) {
    std::cout << "  " << std::left << std::setw(16) << m.name << " "
              << m.value << " " << m.unit << "\n";
  }
  if (opt.trace) {
    for (const Metric& m : r.per_layer) {
      std::cout << "  " << std::left << std::setw(30) << m.name << " "
                << m.value << " " << m.unit << "\n";
    }
  }
  for (const std::string& note : r.notes) {
    std::cout << "  note: " << note << "\n";
  }
  for (const std::string& f : r.failures) {
    std::cout << "  FAILED: " << f << "\n";
  }
  std::cout << "  host: " << host_json << "\n";
  std::cout << "  files: " << opt.out_dir << "\n";

  std::vector<Metric> metrics;
  try {
    metrics = on_vocabulary(opt.trace ? kPerLayer : kEndToEnd,
                            opt.trace ? r.per_layer : r.end_to_end);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::ofstream out(args["result"]);
  out << std::setprecision(17) << "{\"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i > 0 ? ", " : "") << perfbench::json_quote(metrics[i].name)
        << ": {\"value\": " << metrics[i].value
        << ", \"unit\": " << perfbench::json_quote(metrics[i].unit) << "}";
  }
  out << "}}\n";
  return correct ? 0 : 1;
}
