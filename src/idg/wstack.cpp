#include "idg/wstack.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "idg/accounting.hpp"
#include "idg/image.hpp"
#include "idg/processor.hpp"
#include "idg/subgrid_fft.hpp"
#include "idg/taper.hpp"
#include "obs/span.hpp"

namespace idg {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Mutable [4][G][G] slice of the [P][4][G][G] plane stack.
ArrayView<cfloat, 3> plane_slice(ArrayView<cfloat, 4> grids, int p) {
  const std::size_t stride = grids.dim(1) * grids.dim(2) * grids.dim(3);
  return {grids.data() + static_cast<std::size_t>(p) * stride,
          {grids.dim(1), grids.dim(2), grids.dim(3)}};
}
ArrayView<const cfloat, 3> plane_slice(ArrayView<const cfloat, 4> grids,
                                       int p) {
  const std::size_t stride = grids.dim(1) * grids.dim(2) * grids.dim(3);
  return {grids.data() + static_cast<std::size_t>(p) * stride,
          {grids.dim(1), grids.dim(2), grids.dim(3)}};
}

/// Multiplies a [4][G][G] cube by exp(sign * 2*pi*i * w0 * n(l,m)) on the
/// full-resolution raster.
void apply_w_screen(ArrayView<cfloat, 3> cube, const Parameters& params,
                    double w0, double sign) {
  const std::size_t g = params.grid_size;
#pragma omp parallel for schedule(static)
  for (std::size_t y = 0; y < g; ++y) {
    const float m = params.grid_lm(y);
    for (std::size_t x = 0; x < g; ++x) {
      const float l = params.grid_lm(x);
      const double phase = sign * kTwoPi * w0 * compute_n(l, m);
      const cfloat screen(static_cast<float>(std::cos(phase)),
                          static_cast<float>(std::sin(phase)));
      for (std::size_t p = 0; p < kNrPolarizations; ++p)
        cube(p, y, x) *= screen;
    }
  }
}
}  // namespace

WStackProcessor::WStackProcessor(Parameters params, WPlaneModel wplanes,
                                 const KernelSet& kernels)
    : params_(params),
      wplanes_(wplanes),
      kernels_(&kernels),
      taper_(make_taper_for(params)) {
  params_.validate();
}

Plan WStackProcessor::make_plan(const Array2D<UVW>& uvw,
                                const std::vector<double>& frequencies,
                                const std::vector<Baseline>& baselines) const {
  return Plan(params_, uvw, frequencies, baselines, &wplanes_);
}

Array4D<cfloat> WStackProcessor::make_grids() const {
  return Array4D<cfloat>(static_cast<std::size_t>(wplanes_.nr_planes()),
                         static_cast<std::size_t>(kNrPolarizations),
                         params_.grid_size, params_.grid_size);
}

void WStackProcessor::grid_visibilities(const Plan& plan,
                                        ArrayView<const UVW, 2> uvw,
                                        ArrayView<const Visibility, 3> visibilities,
                                        ArrayView<const Jones, 4> aterms,
                                        ArrayView<cfloat, 4> grids,
                                        obs::MetricsSink& sink) const {
  IDG_CHECK(grids.dim(0) == static_cast<std::size_t>(wplanes_.nr_planes()),
            "plane-grid stack has wrong number of planes");
  const std::size_t n = params_.subgrid_size;
  Array4D<cfloat> subgrids(params_.work_group_size,
                           static_cast<std::size_t>(kNrPolarizations), n, n);
  check_aterm_raster(aterms, n);
  KernelData data{uvw, plan.wavenumbers(), aterms, taper_.cview()};

  for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
    const auto items = plan.work_group(g);
    const auto group = static_cast<std::int64_t>(g);
    {
      obs::Span span(sink, stage::kGridder, group);
      with_stage_context(stage::kGridder, group, [&] {
        kernels_->grid(params_, data, items, visibilities, subgrids.view());
      });
    }
    {
      obs::Span span(sink, stage::kSubgridFft, group);
      with_stage_context(stage::kSubgridFft, group, [&] {
        subgrid_fft(SubgridFftDirection::ToFourier, subgrids.view(),
                    items.size());
      });
    }
    {
      // Route each subgrid to its plane's grid. Items are processed
      // serially (overlapping patches on the same plane must not race);
      // each patch add is SIMD over rows. Iterating by WorkItem::order
      // keeps per-pixel accumulation bit-identical to the tiled adder,
      // whose per-tile lists are order-canonical, for any PlanOrdering.
      obs::Span span(sink, stage::kAdder, group);
      std::vector<std::size_t> by_order(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) by_order[i] = i;
      std::sort(by_order.begin(), by_order.end(),
                [&](std::size_t a, std::size_t b) {
                  return items[a].order < items[b].order;
                });
      for (const std::size_t i : by_order) {
        auto plane = plane_slice(grids, items[i].w_plane);
        const std::size_t y0 = static_cast<std::size_t>(items[i].coord_y);
        const std::size_t x0 = static_cast<std::size_t>(items[i].coord_x);
        for (std::size_t p = 0; p < kNrPolarizations; ++p) {
          for (std::size_t sy = 0; sy < n; ++sy) {
            cfloat* dst = &plane(p, y0 + sy, x0);
            const cfloat* src = &subgrids(i, p, sy, 0);
            for (std::size_t x = 0; x < n; ++x) dst[x] += src[x];
          }
        }
      }
    }
  }

  sink.record_ops(stage::kGridder, gridder_op_counts(plan));
  sink.record_ops(stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(stage::kAdder, adder_op_counts(plan));
}

void WStackProcessor::degrid_visibilities(const Plan& plan,
                                          ArrayView<const UVW, 2> uvw,
                                          ArrayView<const cfloat, 4> grids,
                                          ArrayView<const Jones, 4> aterms,
                                          ArrayView<Visibility, 3> visibilities,
                                          obs::MetricsSink& sink) const {
  IDG_CHECK(grids.dim(0) == static_cast<std::size_t>(wplanes_.nr_planes()),
            "plane-grid stack has wrong number of planes");
  const std::size_t n = params_.subgrid_size;
  Array4D<cfloat> subgrids(params_.work_group_size,
                           static_cast<std::size_t>(kNrPolarizations), n, n);
  check_aterm_raster(aterms, n);
  KernelData data{uvw, plan.wavenumbers(), aterms, taper_.cview()};

  for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
    const auto items = plan.work_group(g);
    const auto group = static_cast<std::int64_t>(g);
    {
      obs::Span span(sink, stage::kSplitter, group);
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < items.size(); ++i) {
        auto plane = plane_slice(grids, items[i].w_plane);
        const std::size_t y0 = static_cast<std::size_t>(items[i].coord_y);
        const std::size_t x0 = static_cast<std::size_t>(items[i].coord_x);
        for (std::size_t p = 0; p < kNrPolarizations; ++p) {
          for (std::size_t sy = 0; sy < n; ++sy) {
            const cfloat* src = &plane(p, y0 + sy, x0);
            cfloat* dst = &subgrids(i, p, sy, 0);
            for (std::size_t x = 0; x < n; ++x) dst[x] = src[x];
          }
        }
      }
    }
    {
      obs::Span span(sink, stage::kSubgridFft, group);
      with_stage_context(stage::kSubgridFft, group, [&] {
        subgrid_fft(SubgridFftDirection::ToImage, subgrids.view(),
                    items.size());
      });
    }
    {
      obs::Span span(sink, stage::kDegridder, group);
      with_stage_context(stage::kDegridder, group, [&] {
        kernels_->degrid(params_, data, items, subgrids.cview(), visibilities);
      });
    }
  }

  sink.record_ops(stage::kSplitter, splitter_op_counts(plan));
  sink.record_ops(stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(stage::kDegridder, degridder_op_counts(plan));
}

Array3D<cfloat> WStackProcessor::make_dirty_image(
    ArrayView<const cfloat, 4> grids, std::uint64_t nr_visibilities) const {
  IDG_CHECK(nr_visibilities > 0, "nr_visibilities must be positive");
  const std::size_t g = params_.grid_size;
  const std::size_t rows = kNrPolarizations * g;
  Array3D<cfloat> accum(kNrPolarizations, g, g);
  Array3D<cfloat> work(kNrPolarizations, g, g);

  for (int p = 0; p < wplanes_.nr_planes(); ++p) {
    auto plane = plane_slice(grids, p);
    std::copy(plane.begin(), plane.end(), work.begin());
    fft_grid_to_image(work.view());
    // Undo the plane's residual w phase: multiply by e^{+2 pi i w_p n}.
    apply_w_screen(work.view(), params_, wplanes_.center(p), +1.0);
#pragma omp parallel for schedule(static)
    for (std::size_t row = 0; row < rows; ++row)
      for (std::size_t x = 0; x < g; ++x)
        accum.data()[row * g + x] += work.data()[row * g + x];
  }

  const auto correction = cached_taper_correction(params_);
  const float scale = 1.0f / static_cast<float>(nr_visibilities);
#pragma omp parallel for schedule(static)
  for (std::size_t y = 0; y < g; ++y) {
    const float* c = correction->data() + y * g;
    for (std::size_t p = 0; p < kNrPolarizations; ++p) {
      cfloat* row = accum.data() + (p * g + y) * g;
      for (std::size_t x = 0; x < g; ++x) row[x] *= scale * c[x];
    }
  }
  return accum;
}

Array4D<cfloat> WStackProcessor::model_image_to_grids(
    const Array3D<cfloat>& model_image) const {
  const std::size_t g = params_.grid_size;
  IDG_CHECK(model_image.dim(1) == g, "model image size mismatch");
  Array4D<cfloat> grids = make_grids();
  const auto correction = cached_taper_correction(params_);

  for (int p = 0; p < wplanes_.nr_planes(); ++p) {
    auto plane = plane_slice(grids.view(), p);
#pragma omp parallel for schedule(static)
    for (std::size_t y = 0; y < g; ++y) {
      const float* c = correction->data() + y * g;
      for (std::size_t pol = 0; pol < kNrPolarizations; ++pol) {
        const cfloat* in = model_image.data() + (pol * g + y) * g;
        cfloat* out = &plane(pol, y, 0);
        for (std::size_t x = 0; x < g; ++x) out[x] = in[x] * c[x];
      }
    }
    // Conjugate screen: the degridder restores e^{-2 pi i w n} exactly for
    // w = w_p and corrects the residual per visibility.
    apply_w_screen(plane, params_, wplanes_.center(p), -1.0);
    fft_image_to_grid(plane);
  }
  return grids;
}

}  // namespace idg
