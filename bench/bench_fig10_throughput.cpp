// Regenerates Fig 10: gridding and degridding throughput in MVisibilities/s
// per architecture (host measured; 2017 machines modeled).
//
// The measured numbers come from two obs::AggregateSinks (one per
// direction) fed by the selected backend (--backend synchronous|resilient);
// --json <path> exports the combined per-stage metrics (idg-obs/v9).
//
// Expected shape: both GPUs almost an order of magnitude above the CPU.
#include <iostream>

#include "arch/cyclemodel.hpp"
#include "arch/machine.hpp"
#include "bench_common.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"
#include "obs/sink.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Fig 10: gridding/degridding throughput", setup);

  const KernelSet& kernels = bench::kernel_set_from_options(opts);
  auto backend = bench::backend_from_options(opts, setup.params, kernels);
  Array3D<cfloat> grid(4, setup.params.grid_size, setup.params.grid_size);

  // Measured: gridding path (gridder + subgrid FFT + adder) and degridding
  // path (splitter + subgrid FFT + degridder).
  obs::AggregateSink grid_sink, degrid_sink;
  backend->grid(setup.plan, setup.dataset.uvw.cview(),
                setup.dataset.visibilities.cview(),
                setup.dataset.flag_view(), setup.aterms.cview(),
                grid.view(), grid_sink);
  backend->degrid(setup.plan, setup.dataset.uvw.cview(), grid.cview(),
                  setup.dataset.flag_view(), setup.aterms.cview(),
                  setup.dataset.visibilities.view(),
                  degrid_sink);

  const double nvis =
      static_cast<double>(setup.plan.nr_planned_visibilities());

  Table table({"architecture", "gridding (MVis/s)", "degridding (MVis/s)"});
  table.row()
      .add("HOST (measured, " + kernels.name() + ", " + backend->name() + ")")
      .add(nvis / grid_sink.total_seconds() / 1e6, 3)
      .add(nvis / degrid_sink.total_seconds() / 1e6, 3);

  for (const auto& machine : arch::paper_machines()) {
    const auto model = arch::model_imaging_cycle(machine, setup.plan);
    table.row()
        .add(machine.name + " (modeled)")
        .add(model.gridding_vis_per_second() / 1e6, 1)
        .add(model.degridding_vis_per_second() / 1e6, 1);
  }
  table.print(std::cout);
  std::cout << "\nexpected shape: GPUs ~an order of magnitude above the "
               "CPU (paper Fig 10).\n";
  std::cout << "adder: " << grid_sink.seconds(stage::kAdder)
            << " s, splitter: " << degrid_sink.seconds(stage::kSplitter)
            << " s, plan "
            << (setup.params.plan_ordering == PlanOrdering::kTileSorted
                    ? "tile-sorted"
                    : "arrival-ordered")
            << ", tile " << setup.params.adder_tile_size
            << " px (ablate with --sorted/--unsorted)\n";
  bench::maybe_write_csv(table, opts);

  obs::AggregateSink combined;
  combined.merge(grid_sink.snapshot());
  combined.merge(degrid_sink.snapshot());
  bench::maybe_write_json(combined.snapshot(), opts);
  return 0;
}
