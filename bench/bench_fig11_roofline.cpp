// Regenerates Fig 11: the modified roofline analysis. For every
// architecture and for both kernels it prints the operational intensity
// (ops per device-memory byte), the classic rooflines, the rho = 17 op-mix
// ceiling (the paper's dashed lines) and the achieved performance — modeled
// for the 2017 machines, measured for this host.
//
// The measured host rows come from a real run through the selected backend
// (--backend, default synchronous): the analytic op counts recorded by the
// run are divided by the measured per-stage seconds and attributed against
// the host's rooflines (arch/attribution.hpp). --json <path> writes the
// full per-stage attribution in the idg-roofline/v2 schema; --hw samples
// hardware perf_event counters per stage so the v2 output carries measured
// instructions/cycles/LLC-miss bytes and a measured-vs-analytic agreement
// ratio beside the analytic points (graceful note when the host masks
// counter access); --trace <path> additionally records the run's event
// timeline.
//
// Expected shape: all kernels compute-bound; PASCAL near its theoretical
// peak (74% gridder / 55% degridder); HASWELL and FIJI far below peak but
// *at* their rho = 17 math-library ceilings.
#include <fstream>
#include <iostream>

#include "arch/attribution.hpp"
#include "arch/machine.hpp"
#include "arch/roofline.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "idg/accounting.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  bench::PerfGuard perf(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Fig 11: modified roofline analysis", setup);

  const OpCounts gridder = gridder_op_counts(setup.plan);
  const OpCounts degridder = degridder_op_counts(setup.plan);

  Table table({"architecture", "kernel", "intensity (ops/B)", "ridge (ops/B)",
               "peak (TOps/s)", "rho=17 ceiling", "achieved (TOps/s)",
               "% of peak"});

  auto add_modeled = [&](const arch::Machine& m, const char* kernel,
                         const OpCounts& counts) {
    const double achieved = arch::modeled_ops_per_second(m, counts);
    table.row()
        .add(m.name + " (modeled)")
        .add(kernel)
        .add(counts.intensity_dev(), 1)
        .add(arch::ridge_point(m), 1)
        .add(m.peak_ops() / 1e12, 2)
        .add(arch::opmix_ceiling(m, counts.rho()) / 1e12, 2)
        .add(achieved / 1e12, 2)
        .add(100.0 * achieved / m.peak_ops(), 1);
  };
  for (const auto& m : arch::paper_machines()) {
    add_modeled(m, "gridder", gridder);
    add_modeled(m, "degridder", degridder);
  }

  // Measured host rows: run both directions through the selected backend;
  // the sinks accumulate measured seconds AND the plan's analytic counts,
  // which attribute_roofline joins against the host's ceilings.
  const KernelSet& kernels = bench::kernel_set_from_options(opts);
  auto backend = bench::backend_from_options(opts, setup.params, kernels);
  Array3D<cfloat> grid(4, setup.params.grid_size, setup.params.grid_size);
  obs::AggregateSink gt, dt;
  backend->grid(setup.plan, setup.dataset.uvw.cview(),
                setup.dataset.visibilities.cview(), setup.aterms.cview(),
                grid.view(), gt);
  backend->degrid(setup.plan, setup.dataset.uvw.cview(), grid.cview(),
                  setup.aterms.cview(), setup.dataset.visibilities.view(), dt);

  const arch::Machine host = arch::host_machine();
  obs::MetricsSnapshot merged = gt.snapshot();
  for (const auto& [name, m] : dt.snapshot()) merged[name] += m;
  const auto attribution = arch::attribute_roofline(host, merged);

  auto add_measured = [&](const char* kernel, const std::string& stage) {
    for (const auto& a : attribution) {
      if (a.stage != stage) continue;
      table.row()
          .add("HOST (measured)")
          .add(kernel)
          .add(a.intensity_dev, 1)
          .add(arch::ridge_point(host), 1)
          .add(host.peak_ops() / 1e12, 2)
          .add(a.ceiling_opmix / 1e12, 2)
          .add(a.achieved_ops / 1e12, 3)
          .add(a.pct_of_peak, 1);
    }
  };
  add_measured("gridder", stage::kGridder);
  add_measured("degridder", stage::kDegridder);

  table.print(std::cout);
  std::cout << "\n";
  arch::write_attribution_table(std::cout, host, attribution);
  std::cout << "\nexpected shape: intensity >> ridge everywhere (compute "
               "bound); PASCAL ~74%/55% of peak; HASWELL/FIJI/HOST well "
               "below peak but close to their rho=17 sincos ceilings "
               "(paper Fig 11).\n";
  bench::maybe_write_csv(table, opts);
  if (opts.has("json")) {
    const std::string path = opts.get("json", std::string{});
    std::ofstream os(path);
    IDG_CHECK(os.good(), "cannot open '" << path << "' for writing");
    arch::write_attribution_json(os, host, attribution);
    std::cout << "\n(wrote " << path << ")\n";
  }
  return 0;
}
