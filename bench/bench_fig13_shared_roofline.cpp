// Regenerates Fig 13: the roofline with operational intensity computed
// against GPU *shared memory* traffic instead of device memory.
//
// The modeled rows place the two kernels under the GPU machines' shared-
// memory bounds. A measured section then runs both kernels on this host
// through the selected backend and attributes the per-stage achieved rates
// against the host's rooflines (arch/attribution.hpp) — for a CPU the
// shared-memory ceiling is reported as n/a and the binding ceiling is the
// op-mix or device-bandwidth roofline, which is exactly the contrast the
// figure makes. --json <path> writes the measured attribution
// (idg-roofline/v2); --hw adds measured perf_event counters per stage to
// that output (DESIGN.md §15); --trace records the run's event timeline.
//
// Expected shape: on PASCAL both kernels sit close to the shared-memory
// bandwidth bound — which explains why the gridder reaches only 74% and
// the degridder 55% of peak despite hardware sincos; FIJI is also
// "relatively close to hitting the shared memory bandwidth limit".
#include <fstream>
#include <iostream>

#include "arch/attribution.hpp"
#include "arch/machine.hpp"
#include "arch/roofline.hpp"
#include "bench_common.hpp"
#include "common/error.hpp"
#include "idg/accounting.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  bench::PerfGuard perf(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Fig 13: shared-memory roofline (GPU kernels)", setup);

  const OpCounts gridder = gridder_op_counts(setup.plan);
  const OpCounts degridder = degridder_op_counts(setup.plan);

  Table table({"architecture", "kernel", "shared intensity (ops/B)",
               "shared bw (GB/s)", "shared bound (TOps/s)",
               "achieved (TOps/s)", "% of shared bound"});
  for (const auto& m : arch::paper_machines()) {
    if (m.shared_bw_gbs <= 0.0) continue;  // CPUs have no shared-memory tier
    for (const auto& [kernel, counts] :
         {std::pair{"gridder", gridder}, std::pair{"degridder", degridder}}) {
      const double bound = arch::roofline_shared(m, counts.intensity_shared());
      const double achieved = arch::modeled_ops_per_second(m, counts);
      table.row()
          .add(m.name)
          .add(kernel)
          .add(counts.intensity_shared(), 2)
          .add(m.shared_bw_gbs, 0)
          .add(bound / 1e12, 2)
          .add(achieved / 1e12, 2)
          .add(100.0 * achieved / bound, 1);
    }
  }
  table.print(std::cout);

  // Measured contrast: the same kernels on this host, attributed against
  // the host's rooflines (no shared tier -> op-mix / device bandwidth
  // bound instead).
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
  std::cout << "\n";
  arch::write_attribution_table(std::cout, host, attribution);

  std::cout << "\nexpected shape: both kernels within ~10% of the shared-"
               "memory bandwidth bound on PASCAL, close on FIJI "
               "(paper Fig 13); the measured host rows bind on the op-mix "
               "or device-memory ceiling instead (no shared tier).\n";
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
