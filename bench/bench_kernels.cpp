// google-benchmark microbenchmarks for the individual components: kernel
// variants (the §V-B optimization ablation, DESIGN.md §14), subgrid FFTs,
// adder/splitter, the vectorized math library and the CRC-32 that guards
// every checkpoint file and wire frame.
//
// The gridder/degridder benches are registered dynamically over the kernel
// registry:
//
//   bench_kernels                       sweep every registered variant
//   bench_kernels --kernel-set optimized-lut
//                                       benchmark one named variant
//   bench_kernels --kernel-set all --json-dir out/
//                                       additionally emit one comparable
//                                       idg-obs JSON per variant
//                                       (out/kernels_<name>.json)
//
// All other command-line arguments are forwarded to google-benchmark
// (--benchmark_filter=..., --benchmark_min_time=..., ...).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/checkpoint.hpp"
#include "fft/fft.hpp"
#include "idg/adder.hpp"
#include "idg/image.hpp"
#include "idg/kernels.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/subgrid_fft.hpp"
#include "idg/taper.hpp"
#include "kernels/optimized.hpp"
#include "kernels/vmath.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;

/// One shared fixture: a small but representative work set.
struct Fixture {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;
  Array2D<float> taper;
  Array4D<cfloat> subgrids;

  static const Fixture& get() {
    static const Fixture f = [] {
      sim::BenchmarkConfig cfg;
      cfg.nr_stations = 12;
      cfg.nr_timesteps = 64;
      cfg.nr_channels = 8;
      cfg.grid_size = 512;
      cfg.subgrid_size = 24;
      auto ds = sim::make_benchmark_dataset(cfg);
      Parameters params;
      params.grid_size = cfg.grid_size;
      params.subgrid_size = cfg.subgrid_size;
      params.image_size = ds.image_size;
      params.nr_stations = cfg.nr_stations;
      params.kernel_size = 8;
      Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
      auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                              cfg.subgrid_size);
      auto taper = make_taper(cfg.subgrid_size);
      Array4D<cfloat> subgrids(plan.nr_subgrids(), 4, cfg.subgrid_size,
                               cfg.subgrid_size);
      return Fixture{std::move(ds), params, std::move(plan),
                     std::move(aterms), std::move(taper),
                     std::move(subgrids)};
    }();
    return f;
  }

  KernelData data() const {
    return {ds.uvw.cview(), plan.wavenumbers(), aterms.cview(),
            taper.cview()};
  }
};

void BM_Gridder(benchmark::State& state, const std::string& kernel_name) {
  const Fixture& f = Fixture::get();
  const KernelSet& k = kernels::kernel_set(kernel_name);
  Array4D<cfloat> out(f.plan.nr_subgrids(), 4, f.params.subgrid_size,
                      f.params.subgrid_size);
  for (auto _ : state) {
    k.grid(f.params, f.data(), f.plan.items(), f.ds.visibilities.cview(),
           out.view());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["MVis/s"] = benchmark::Counter(
      static_cast<double>(f.plan.nr_planned_visibilities()) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_Degridder(benchmark::State& state, const std::string& kernel_name) {
  const Fixture& f = Fixture::get();
  const KernelSet& k = kernels::kernel_set(kernel_name);
  Array3D<Visibility> vis(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                          f.ds.nr_channels());
  for (auto _ : state) {
    k.degrid(f.params, f.data(), f.plan.items(), f.subgrids.cview(),
             vis.view());
    benchmark::DoNotOptimize(vis.data());
  }
  state.counters["MVis/s"] = benchmark::Counter(
      static_cast<double>(f.plan.nr_planned_visibilities()) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_SubgridFft(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  Array4D<cfloat> buf(f.plan.nr_subgrids(), 4, f.params.subgrid_size,
                      f.params.subgrid_size);
  for (auto _ : state) {
    subgrid_fft(SubgridFftDirection::ToFourier, buf.view(),
                f.plan.nr_subgrids());
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["subgrids/s"] = benchmark::Counter(
      static_cast<double>(f.plan.nr_subgrids()) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_Adder(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  Array3D<cfloat> grid(4, f.params.grid_size, f.params.grid_size);
  for (auto _ : state) {
    add_subgrids_to_grid(f.params, f.plan.items(), f.subgrids.cview(),
                         grid.view());
    benchmark::DoNotOptimize(grid.data());
  }
  state.counters["subgrids/s"] = benchmark::Counter(
      static_cast<double>(f.plan.nr_subgrids()) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_Splitter(benchmark::State& state) {
  const Fixture& f = Fixture::get();
  Array3D<cfloat> grid(4, f.params.grid_size, f.params.grid_size);
  Array4D<cfloat> out(f.plan.nr_subgrids(), 4, f.params.subgrid_size,
                      f.params.subgrid_size);
  for (auto _ : state) {
    split_subgrids_from_grid(f.params, f.plan.items(), grid.cview(),
                             out.view());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["subgrids/s"] = benchmark::Counter(
      static_cast<double>(f.plan.nr_subgrids()) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_Sincos(benchmark::State& state, kernels::SincosFn fn) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AlignedVector<float> x(n), s(n), c(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.31f * static_cast<float>(i % 977);
  for (auto _ : state) {
    fn(n, x.data(), s.data(), c.data());
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sincos/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(), benchmark::Counter::kIsRate);
}

void BM_Fft2D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fft::Plan2D<float> plan(n, n, fft::Direction::Forward);
  fft::Workspace<float> ws;
  std::vector<cfloat> data(n * n, cfloat{1.0f, -0.5f});
  for (auto _ : state) {
    plan.execute_inplace(data.data(), ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.counters["transforms/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

/// fft_grid_to_image on a [4][n][n] cube: the grid FFT of one imaging
/// cycle. Each iteration transforms a fresh copy of the same input (the
/// unnormalized transform would otherwise overflow after a few passes).
void BM_GridFftCube(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Array3D<cfloat> input(4, n, n), cube(4, n, n);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = cfloat{static_cast<float>(i % 7) - 3.0f,
                             static_cast<float>(i % 5) - 2.0f};
  for (auto _ : state) {
    state.PauseTiming();
    std::copy(input.begin(), input.end(), cube.begin());
    state.ResumeTiming();
    fft_grid_to_image(cube.view());
    benchmark::DoNotOptimize(cube.data());
    benchmark::ClobberMemory();
  }
  // 5 N log2 N flops per 2-D plane of N = n^2 points.
  const double points = static_cast<double>(n * n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      4.0 * 5.0 * points * std::log2(points) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

/// CRC-32 over a buffer the size of a sharded job frame (bytes/s).
void BM_Crc32(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> buffer(size);
  for (std::size_t i = 0; i < size; ++i)
    buffer[i] = static_cast<unsigned char>(i * 2654435761u >> 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

BENCHMARK(BM_SubgridFft)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Adder)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Splitter)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Sincos, vmath, &vmath::sincos_batch)->Arg(4096);
BENCHMARK_CAPTURE(BM_Sincos, lut, &vmath::sincos_lut)->Arg(4096);
BENCHMARK_CAPTURE(BM_Sincos, libm, &vmath::sincos_libm)->Arg(4096);
BENCHMARK(BM_Fft2D)->Arg(24)->Arg(32)->Arg(64)->Arg(256);
BENCHMARK(BM_GridFftCube)->Arg(2048)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Crc32)->Arg(64 << 20)->Unit(benchmark::kMillisecond);

/// One timed grid+degrid pass per variant, exported as the same idg-obs
/// JSON the figure benches emit — so a registry sweep yields directly
/// comparable per-variant stage metrics (--kernel-set all --json-dir out/).
void export_variant_json(const std::vector<std::string>& names,
                         const std::string& dir) {
  std::filesystem::create_directories(dir);
  const Fixture& f = Fixture::get();
  for (const std::string& name : names) {
    const KernelSet& k = kernels::kernel_set(name);
    obs::AggregateSink sink;
    Array4D<cfloat> out(f.plan.nr_subgrids(), 4, f.params.subgrid_size,
                        f.params.subgrid_size);
    Array3D<Visibility> vis(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                            f.ds.nr_channels());
    {
      obs::Span span(sink, stage::kGridder);
      k.grid(f.params, f.data(), f.plan.items(), f.ds.visibilities.cview(),
             out.view());
    }
    {
      obs::Span span(sink, stage::kDegridder);
      k.degrid(f.params, f.data(), f.plan.items(), f.subgrids.cview(),
               vis.view());
    }
    OpCounts ops;
    ops.visibilities = f.plan.nr_planned_visibilities();
    sink.record_ops(stage::kGridder, ops);
    sink.record_ops(stage::kDegridder, ops);
    const std::string path = dir + "/kernels_" + name + ".json";
    obs::write_json_file(path, sink.snapshot());
    std::cout << "wrote " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our own options before google-benchmark sees the rest.
  std::string kernel_set = "all";
  std::string json_dir;
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto take = [&](const char* opt, std::string& out) {
      const std::string prefix = std::string(opt) + "=";
      if (arg == opt && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      if (arg.rfind(prefix, 0) == 0) {
        out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    if (take("--kernel-set", kernel_set) || take("--json-dir", json_dir)) {
      continue;
    }
    fwd.push_back(argv[i]);
  }

  std::vector<std::string> names;
  try {
    if (kernel_set == "all") {
      names = kernels::kernel_set_names();
    } else {
      names.push_back(kernels::kernel_set(kernel_set).name());
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_kernels: " << e.what() << "\n";
    return 1;
  }

  std::vector<std::unique_ptr<std::string>> name_storage;
  for (const std::string& name : names) {
    name_storage.push_back(std::make_unique<std::string>(name));
    const std::string& stable = *name_storage.back();
    benchmark::RegisterBenchmark(
        ("BM_Gridder/" + name).c_str(),
        [&stable](benchmark::State& s) { BM_Gridder(s, stable); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_Degridder/" + name).c_str(),
        [&stable](benchmark::State& s) { BM_Degridder(s, stable); })
        ->Unit(benchmark::kMillisecond);
  }

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!json_dir.empty()) {
    try {
      export_variant_json(names, json_dir);
    } catch (const std::exception& e) {
      std::cerr << "bench_kernels: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}
