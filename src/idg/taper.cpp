#include "idg/taper.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numbers>
#include <tuple>

#include "common/error.hpp"

namespace idg {

double pswf(double eta) {
  // Schwab (1984) rational approximation for psi_{0,6}, support width m = 6,
  // alpha = 1. Two fitting intervals: |eta| in [0, 0.75] and [0.75, 1.0].
  static constexpr double p[2][5] = {
      {8.203343e-2, -3.644705e-1, 6.278660e-1, -5.335581e-1, 2.312756e-1},
      {4.028559e-3, -3.697768e-2, 1.021332e-1, -1.201436e-1, 6.412774e-2}};
  static constexpr double q[2][3] = {{1.0000000e0, 8.212018e-1, 2.078043e-1},
                                     {1.0000000e0, 9.599102e-1, 2.918724e-1}};

  const double abs_eta = std::abs(eta);
  if (abs_eta > 1.0) return 0.0;

  const int part = abs_eta <= 0.75 ? 0 : 1;
  const double end = part == 0 ? 0.75 : 1.0;
  const double x = abs_eta * abs_eta - end * end;

  const double top =
      p[part][0] +
      x * (p[part][1] + x * (p[part][2] + x * (p[part][3] + x * p[part][4])));
  const double bottom = q[part][0] + x * (q[part][1] + x * q[part][2]);
  return bottom == 0.0 ? 0.0 : top / bottom;
}

double pswf_gridding_function(double eta) {
  const double abs_eta = std::abs(eta);
  if (abs_eta > 1.0) return 0.0;
  return (1.0 - abs_eta * abs_eta) * pswf(eta);
}

namespace {
inline double eta_of(std::size_t x, std::size_t n) {
  return 2.0 * (static_cast<double>(x) - static_cast<double>(n) / 2.0) /
         static_cast<double>(n);
}
}  // namespace

Array2D<float> make_taper(std::size_t n) {
  IDG_CHECK(n >= 2, "taper raster must have at least 2 pixels");
  std::vector<double> line(n);
  for (std::size_t x = 0; x < n; ++x) line[x] = pswf(eta_of(x, n));
  Array2D<float> taper(n, n);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      taper(y, x) = static_cast<float>(line[y] * line[x]);
  return taper;
}

Array2D<float> make_taper_correction(std::size_t n, double floor) {
  Array2D<float> taper = make_taper(n);
  Array2D<float> correction(n, n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double t = taper(y, x);
      correction(y, x) =
          t > floor ? static_cast<float>(1.0 / t) : 0.0f;
    }
  }
  return correction;
}

double es_beta(double beta_per_cell, std::size_t support) {
  return beta_per_cell * static_cast<double>(support) / 2.0;
}

std::vector<double> es_taper_line(std::size_t n, double support, double beta) {
  IDG_CHECK(n >= 2, "taper raster must have at least 2 pixels");
  // 256-point midpoint rule; the integrand is smooth and the cos frequency
  // stays below pi*support/2, so this is converged to ~1e-12 for the
  // supports in use (<= ~32 cells).
  constexpr int q = 256;
  std::vector<double> weight(q), nu(q);
  double norm = 0.0;
  for (int i = 0; i < q; ++i) {
    nu[i] = -1.0 + (2.0 * i + 1.0) / q;
    weight[i] = std::exp(beta * (std::sqrt(1.0 - nu[i] * nu[i]) - 1.0));
    norm += weight[i];
  }
  std::vector<double> line(n);
  const double half_support_pi = std::numbers::pi * support / 2.0;
  for (std::size_t x = 0; x < n; ++x) {
    const double eta = eta_of(x, n);
    double acc = 0.0;
    for (int i = 0; i < q; ++i)
      acc += weight[i] * std::cos(half_support_pi * nu[i] * eta);
    line[x] = acc / norm;
  }
  return line;
}

namespace {
/// Separable product of one taper line with itself, as float.
Array2D<float> outer_product(const std::vector<double>& line) {
  const std::size_t n = line.size();
  Array2D<float> taper(n, n);
  for (std::size_t y = 0; y < n; ++y)
    for (std::size_t x = 0; x < n; ++x)
      taper(y, x) = static_cast<float>(line[y] * line[x]);
  return taper;
}
}  // namespace

Array2D<float> make_taper_for(const Parameters& params) {
  if (params.taper == TaperKind::kPSWF)
    return make_taper(params.subgrid_size);
  const double beta = es_beta(params.es_beta_per_cell, params.kernel_size);
  return outer_product(es_taper_line(
      params.subgrid_size, static_cast<double>(params.kernel_size), beta));
}

Array2D<float> make_taper_correction_for(const Parameters& params) {
  const std::size_t n = params.grid_size;
  if (params.taper == TaperKind::kPSWF) return make_taper_correction(n);
  const double beta = es_beta(params.es_beta_per_cell, params.kernel_size);
  const std::vector<double> line =
      es_taper_line(n, static_cast<double>(params.kernel_size), beta);
  // The ES line crosses zero near the field edge, so clamp on |t|.
  constexpr double kFloor = 1e-6;
  Array2D<float> correction(n, n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double t = line[y] * line[x];
      correction(y, x) =
          std::abs(t) > kFloor ? static_cast<float>(1.0 / t) : 0.0f;
    }
  }
  return correction;
}

std::shared_ptr<const Array2D<float>> cached_taper_correction(
    const Parameters& params) {
  // A 2048^2 raster is 16 MiB: keep a handful, most recent first.
  constexpr std::size_t kMaxEntries = 4;
  using Key = std::tuple<std::size_t, TaperKind, double, std::size_t>;
  const bool es = params.taper == TaperKind::kES;
  const Key key{params.grid_size, params.taper,
                es ? params.es_beta_per_cell : 0.0,
                es ? params.kernel_size : 0};
  static std::mutex mutex;
  static std::vector<std::pair<Key, std::shared_ptr<const Array2D<float>>>>
      cache;
  std::lock_guard lock(mutex);
  auto it = std::find_if(cache.begin(), cache.end(),
                         [&](const auto& entry) { return entry.first == key; });
  if (it == cache.end()) {
    if (cache.size() == kMaxEntries) cache.pop_back();
    cache.emplace_back(key, std::make_shared<const Array2D<float>>(
                                make_taper_correction_for(params)));
    it = cache.end() - 1;
  }
  std::rotate(cache.begin(), it, it + 1);
  return cache.front().second;
}

}  // namespace idg
