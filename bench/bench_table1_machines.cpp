// Regenerates Table I: the three architectures used in the comparison,
// plus a measured row for this host.
#include <iostream>

#include "arch/hostprobe.hpp"
#include "arch/machine.hpp"
#include "common/cli.hpp"
#include "common/report.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  // Standalone table: only --csv is meaningful here (no bench_common
  // dependency, so the shared catalogue is not used).
  Options opts(argc, argv, {"paper", "help", "verbose"}, {"csv"});

  std::cout << "== Table I: the three architectures used in this comparison "
               "==\n\n";
  Table table({"model", "type", "architecture", "clock (GHz)", "#FPUs",
               "peak (TFlops)", "mem (GB)", "mem bw (GB/s)", "TDP (W)"});
  for (const auto& m : arch::paper_machines()) {
    table.row()
        .add(m.model)
        .add(m.type)
        .add(m.architecture)
        .add(m.clock_ghz, 2)
        .add(m.fpus)
        .add(m.peak_tflops, 2)
        .add(m.mem_gb, 0)
        .add(m.mem_bw_gbs, 0)
        .add(m.tdp_w, 0);
  }
  table.print(std::cout);

  std::cout << "\n-- this host (measured ceilings) --\n\n";
  const auto& caps = arch::probe_host();
  const auto host = arch::host_machine();
  Table host_table({"quantity", "value"});
  host_table.row().add("threads").add(caps.nr_threads);
  host_table.row().add("peak FMA/s (measured)").add(si_format(caps.fma_per_second) + "FMA/s");
  host_table.row().add("peak (TFlops, measured)").add(host.peak_tflops, 3);
  host_table.row().add("vmath sincos/s (measured)").add(si_format(caps.sincos_per_second) + "sincos/s");
  host_table.row().add("sincos cost (FMA slots)").add(host.sincos_fma_slots, 1);
  host_table.row().add("mem bw (GB/s, measured)").add(caps.mem_bw_gbs, 1);
  // Counter access status: whether --hw runs on this host can carry
  // measured IPC / LLC-miss rates.
  const auto& perf = arch::host_perf_counter_status();
  host_table.row().add("perf_event_paranoid").add(perf.paranoid_level);
  host_table.row()
      .add("hw counters")
      .add(perf.available ? "available (" + perf.detail + ")"
                          : "unavailable (" + perf.detail + ")");
  host_table.print(std::cout);

  if (opts.has("csv")) table.write_csv(opts.get("csv", std::string{}));
  return 0;
}
