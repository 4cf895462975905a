// Regenerates Fig 16: throughput of W-projection gridding (WPG) versus IDG
// for various W-kernel sizes N_W, and IDG at several subgrid sizes N-tilde
// — all measured on this host.
//
// Expected shape: comparable throughput for large N_W; IDG increasingly
// ahead as N_W shrinks toward the practically relevant N_W <= 24 — and IDG
// needs no W-kernel computation or storage at all (reported alongside).
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "idg/processor.hpp"
#include "kernels/optimized.hpp"
#include "wproj/gridder.hpp"

int main(int argc, char** argv) {
  using namespace idg;
  Options opts = bench::parse_bench_options(argc, argv);
  bench::TraceGuard trace(opts);
  auto setup = bench::make_setup(opts);
  bench::print_header("Fig 16: WPG vs IDG throughput vs kernel size", setup);

  const auto& ds = setup.dataset;
  const double nvis = static_cast<double>(ds.nr_visibilities());

  // Max |w| in wavelengths, for the W-kernel set.
  double w_max = 0.0;
  for (const auto& c : ds.uvw)
    w_max = std::max(w_max, std::abs(static_cast<double>(c.w)));
  w_max = w_max / ds.obs.min_wavelength() * 1.01 + 1.0;

  Table table({"algorithm", "kernel size", "gridding (MVis/s)",
               "degridding (MVis/s)", "kernel storage (MB)",
               "kernel build (s)"});

  // --- WPG sweep over N_W ------------------------------------------------------
  Array3D<Visibility> scratch_vis(ds.nr_baselines(), ds.nr_timesteps(),
                                  ds.nr_channels());
  for (long nw : {4L, 8L, 16L, 24L, 32L, 48L, 64L}) {
    if (opts.has("max-nw") && nw > opts.get("max-nw", 64L)) continue;
    wproj::WprojParameters wp;
    wp.grid_size = setup.params.grid_size;
    wp.image_size = setup.params.image_size;
    wp.kernel.support = static_cast<std::size_t>(nw);
    wp.kernel.oversampling = 8;
    wp.kernel.nr_w_planes = static_cast<int>(opts.get("w-planes", 9L));
    wp.kernel.w_max = w_max;
    wproj::WprojGridder wpg(wp);

    Array3D<cfloat> grid(4, wp.grid_size, wp.grid_size);
    Timer tg;
    wpg.grid_visibilities(ds.uvw.cview(), ds.visibilities.cview(),
                          ds.frequencies, grid.view());
    const double grid_s = tg.seconds();
    Timer td;
    wpg.degrid_visibilities(ds.uvw.cview(), grid.cview(), ds.frequencies,
                            scratch_vis.view());
    const double degrid_s = td.seconds();

    table.row()
        .add("WPG (N_W=" + std::to_string(nw) + ")")
        .add(static_cast<int>(nw))
        .add(nvis / grid_s / 1e6, 3)
        .add(nvis / degrid_s / 1e6, 3)
        .add(static_cast<double>(wpg.kernels().storage_bytes()) / 1e6, 1)
        .add(wpg.kernels().construction_seconds(), 2);
  }

  // --- IDG sweep over subgrid size N-tilde ----------------------------------------
  const KernelSet& kernels = bench::kernel_set_from_options(opts);
  for (long n : {8L, 16L, 24L, 32L}) {
    Parameters p = setup.params;
    p.subgrid_size = static_cast<std::size_t>(n);
    p.kernel_size = std::max<std::size_t>(4, static_cast<std::size_t>(n) / 3);
    Plan plan(p, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms = sim::make_identity_aterms(
        (setup.config.nr_timesteps + setup.config.aterm_interval - 1) /
            setup.config.aterm_interval,
        setup.config.nr_stations, p.subgrid_size);
    Processor proc(p, kernels);

    Array3D<cfloat> grid(4, p.grid_size, p.grid_size);
    obs::AggregateSink gt, dt;
    proc.grid_visibilities(plan, ds.uvw.cview(), ds.visibilities.cview(),
                           aterms.cview(), grid.view(), gt);
    proc.degrid_visibilities(plan, ds.uvw.cview(), grid.cview(),
                             aterms.cview(), scratch_vis.view(), dt);
    const double planned =
        static_cast<double>(plan.nr_planned_visibilities());
    table.row()
        .add("IDG (N~=" + std::to_string(n) + ")")
        .add(static_cast<int>(n))
        .add(planned / gt.total_seconds() / 1e6, 3)
        .add(planned / dt.total_seconds() / 1e6, 3)
        .add(0.0, 1)   // IDG stores no convolution kernels
        .add(0.0, 2);  // ... and computes none
  }

  table.print(std::cout);
  std::cout << "\nexpected shape: WPG throughput rises steeply as N_W "
               "shrinks but requires the kernel storage/build columns; IDG "
               "is roughly flat in its subgrid size, wins for the practical "
               "N_W <= 24 regime, and needs no kernels (paper Fig 16; note "
               "WPG there also omits kernel construction from the timing).\n";
  bench::maybe_write_csv(table, opts);
  return 0;
}
