#include "idg/image.hpp"

#include "common/error.hpp"
#include "fft/fft.hpp"
#include "idg/taper.hpp"

namespace idg {

namespace {
/// shift o FFT o shift on each plane of a [4][n][n] cube. The row blocks
/// and then the column blocks of all four planes are handed out to the
/// threads one at a time, so a thread that is descheduled for a while does
/// not hold up the others; each block's result does not depend on the
/// thread that computes it.
void transform_cube(ArrayView<cfloat, 3> cube, fft::Direction direction) {
  IDG_CHECK(cube.dim(0) == kNrPolarizations && cube.dim(1) == cube.dim(2),
            "cube must be [4][n][n]");
  const std::size_t n = cube.dim(1);
  const fft::Plan2D<float>& plan = fft::cached_plan2d<float>(n, direction);
  // Even planes fold the shifts into checkerboard signs; odd ones shift.
  const bool even = n % 2 == 0;
  if (!even) {
#pragma omp parallel for schedule(static)
    for (std::size_t p = 0; p < kNrPolarizations; ++p)
      fft::fftshift2d(cube.data() + p * n * n, n, n, -1);
  }
  const std::size_t blocks = plan.row_blocks();
#pragma omp parallel
  {
    fft::Workspace<float> ws;
#pragma omp for schedule(dynamic)
    for (std::size_t i = 0; i < kNrPolarizations * blocks; ++i)
      plan.transform_rows(cube.data() + i / blocks * n * n, i % blocks, ws,
                          even);
#pragma omp for schedule(dynamic)
    for (std::size_t i = 0; i < kNrPolarizations * blocks; ++i)
      plan.transform_columns(cube.data() + i / blocks * n * n, i % blocks,
                             ws, even);
  }
  if (!even) {
#pragma omp parallel for schedule(static)
    for (std::size_t p = 0; p < kNrPolarizations; ++p)
      fft::fftshift2d(cube.data() + p * n * n, n, n, +1);
  }
}
}  // namespace

void fft_grid_to_image(ArrayView<cfloat, 3> cube) {
  transform_cube(cube, fft::Direction::Backward);
}

void fft_image_to_grid(ArrayView<cfloat, 3> cube) {
  transform_cube(cube, fft::Direction::Forward);
}

namespace {
/// The cached PSWF correction the parameter-less overloads apply.
std::shared_ptr<const Array2D<float>> pswf_correction(std::size_t n) {
  Parameters params;
  params.grid_size = n;
  params.taper = TaperKind::kPSWF;
  return cached_taper_correction(params);
}

/// cube(p, y, x) *= factor * correction(y, x), in place, parallel over
/// chunks of rows.
void apply_correction(Array3D<cfloat>& cube, float factor,
                      const Array2D<float>& correction) {
  const std::size_t n = cube.dim(1);
#pragma omp parallel for schedule(dynamic, 16)
  for (std::size_t y = 0; y < n; ++y) {
    const float* c = correction.data() + y * n;
    for (std::size_t p = 0; p < kNrPolarizations; ++p) {
      cfloat* row = cube.data() + (p * n + y) * n;
      for (std::size_t x = 0; x < n; ++x) row[x] *= factor * c[x];
    }
  }
}

Array3D<cfloat> make_dirty_image_with(const Array3D<cfloat>& grid,
                                      double normalization,
                                      const Array2D<float>& correction) {
  IDG_CHECK(normalization > 0, "normalization must be positive");
  Array3D<cfloat> image(grid);
  fft_grid_to_image(image.view());
  apply_correction(image, static_cast<float>(1.0 / normalization),
                   correction);
  return image;
}

Array3D<cfloat> model_image_to_grid_with(const Array3D<cfloat>& model_image,
                                         const Array2D<float>& correction) {
  Array3D<cfloat> grid(model_image);
  apply_correction(grid, 1.0f, correction);
  fft_image_to_grid(grid.view());
  return grid;
}
}  // namespace

Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 std::uint64_t nr_visibilities) {
  return make_dirty_image(grid, static_cast<double>(nr_visibilities));
}

Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 double normalization) {
  return make_dirty_image_with(grid, normalization,
                               *pswf_correction(grid.dim(1)));
}

Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 std::uint64_t nr_visibilities,
                                 const Parameters& params) {
  return make_dirty_image(grid, static_cast<double>(nr_visibilities), params);
}

Array3D<cfloat> make_dirty_image(const Array3D<cfloat>& grid,
                                 double normalization,
                                 const Parameters& params) {
  IDG_CHECK(grid.dim(1) == params.grid_size,
            "grid does not match Parameters::grid_size");
  return make_dirty_image_with(grid, normalization,
                               *cached_taper_correction(params));
}

Array3D<cfloat> model_image_to_grid(const Array3D<cfloat>& model_image) {
  return model_image_to_grid_with(model_image,
                                  *pswf_correction(model_image.dim(1)));
}

Array3D<cfloat> model_image_to_grid(const Array3D<cfloat>& model_image,
                                    const Parameters& params) {
  IDG_CHECK(model_image.dim(1) == params.grid_size,
            "model image does not match Parameters::grid_size");
  return model_image_to_grid_with(model_image,
                                  *cached_taper_correction(params));
}

}  // namespace idg
