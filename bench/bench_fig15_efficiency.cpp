// Regenerates Fig 15: energy efficiency (GFlops/W) of the gridder and
// degridder kernels per architecture.
//
// Expected values (paper): PASCAL 32 / 23 GFlops/W (gridder/degridder),
// FIJI ~13, HASWELL ~1.5.
#include <iostream>

#include "arch/cyclemodel.hpp"
#include "arch/machine.hpp"
#include "arch/power.hpp"
#include "bench_common.hpp"
#include "common/timer.hpp"
#include "idg/accounting.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Fig 15: energy efficiency of the kernels", setup);

  Table table({"architecture", "gridder (GFlops/W)", "degridder (GFlops/W)"});
  for (const auto& machine : arch::paper_machines()) {
    const auto model = arch::model_imaging_cycle(machine, setup.plan);
    const auto& g = model.stage(stage::kGridder);
    const auto& d = model.stage(stage::kDegridder);
    table.row()
        .add(machine.name + " (modeled)")
        .add(arch::gflops_per_watt(machine, g.counts, g.seconds, 0.95), 1)
        .add(arch::gflops_per_watt(machine, d.counts, d.seconds, 0.95), 1);
  }

  // Host: measured kernel times.
  const KernelSet& kernels = bench::kernel_set_from_options(opts);
  Processor proc(setup.params, kernels);
  Array3D<cfloat> grid(4, setup.params.grid_size, setup.params.grid_size);
  obs::AggregateSink gt, dt;
  proc.grid_visibilities(setup.plan, setup.dataset.uvw.cview(),
                         setup.dataset.visibilities.cview(),
                         setup.aterms.cview(), grid.view(), gt);
  proc.degrid_visibilities(setup.plan, setup.dataset.uvw.cview(),
                           grid.cview(), setup.aterms.cview(),
                           setup.dataset.visibilities.view(), dt);
  const arch::Machine host = arch::host_machine();
  table.row()
      .add("HOST (measured)")
      .add(arch::gflops_per_watt(host, gridder_op_counts(setup.plan),
                                 gt.seconds(stage::kGridder), 0.9),
           2)
      .add(arch::gflops_per_watt(host, degridder_op_counts(setup.plan),
                                 dt.seconds(stage::kDegridder), 0.9),
           2);

  table.print(std::cout);
  std::cout << "\nexpected values: PASCAL ~32/23, FIJI ~13, HASWELL ~1.5 "
               "GFlops/W (paper Fig 15) — GPUs an order of magnitude more "
               "efficient than CPUs.\n";
  bench::maybe_write_csv(table, opts);
  return 0;
}
