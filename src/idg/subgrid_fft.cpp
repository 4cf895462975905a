#include "idg/subgrid_fft.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace idg {

void subgrid_fft(SubgridFftDirection direction, ArrayView<cfloat, 4> subgrids,
                 std::size_t count) {
  IDG_CHECK(count <= subgrids.dim(0), "count exceeds subgrid buffer");
  const std::size_t n = subgrids.dim(2);
  IDG_CHECK(subgrids.dim(3) == n && subgrids.dim(1) == kNrPolarizations,
            "subgrid buffer must be [count][4][n][n]");
  if (count == 0) return;

  const auto fft_dir = direction == SubgridFftDirection::ToFourier
                           ? fft::Direction::Forward
                           : fft::Direction::Backward;
  const fft::Plan2D<float>& plan = fft::cached_plan2d<float>(n, fft_dir);
  const float scale = 1.0f / static_cast<float>(n * n);
  // Each lane block carries L (subgrid, polarization) planes; the last
  // block is padded with zero lanes.
  constexpr std::size_t L = fft::kLanes<float>;
  const std::size_t planes = count * kNrPolarizations;
  const std::size_t blocks = (planes + L - 1) / L;
  const bool even = n % 2 == 0;

#pragma omp parallel
  {
    fft::Workspace<float> ws;
#pragma omp for schedule(dynamic)
    for (std::size_t b = 0; b < blocks; ++b) {
      cfloat* first = subgrids.data() + b * L * n * n;
      const std::size_t k = std::min(L, planes - b * L);
      // Even sizes fold the shifts into checkerboard signs (Plan2D).
      if (!even)
        for (std::size_t i = 0; i < k; ++i)
          fft::fftshift2d(first + i * n * n, n, n, -1);
      plan.transform_planes(first, k, ws, even, scale);
      if (!even)
        for (std::size_t i = 0; i < k; ++i)
          fft::fftshift2d(first + i * n * n, n, n, +1);
    }
  }
}

}  // namespace idg
