// Unit and property tests for the FFT substrate (src/fft) and the grid and
// subgrid transforms built on it (idg/image.hpp, idg/subgrid_fft.hpp).
//
// Ground truth is the O(n^2) naive DFT. Tolerances scale with transform
// length because rounding error grows ~ O(sqrt(log n)) per butterfly level.
#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include "common/array.hpp"
#include "fft/fft.hpp"
#include "idg/image.hpp"
#include "idg/subgrid_fft.hpp"

namespace {

using idg::fft::Direction;
using idg::fft::Plan;
using idg::fft::Plan2D;
using idg::fft::Workspace;

std::vector<std::complex<float>> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<std::complex<float>> x(n);
  for (auto& v : x) v = {dist(rng), dist(rng)};
  return x;
}

double max_abs_error(const std::vector<std::complex<float>>& a,
                     const std::vector<std::complex<float>>& b) {
  EXPECT_EQ(a.size(), b.size());
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, static_cast<double>(std::abs(a[i] - b[i])));
  return err;
}

double tolerance(std::size_t n) { return 2e-5 * std::sqrt(static_cast<double>(n)) * std::max(1.0, std::log2(static_cast<double>(n))); }

// ---------------------------------------------------------------------------
// Parameterized over transform length: smooth sizes, primes (Bluestein),
// and the sizes the pipelines actually use (24, 32, 48, 2048, ...).
class Fft1DSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DSizes, ForwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 42 + static_cast<unsigned>(n));
  auto expected = idg::fft::naive_dft(x, Direction::Forward);

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  EXPECT_LT(max_abs_error(out, expected), tolerance(n)) << "n=" << n;
}

TEST_P(Fft1DSizes, BackwardMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 1000 + static_cast<unsigned>(n));
  auto expected = idg::fft::naive_dft(x, Direction::Backward);

  Plan<float> plan(n, Direction::Backward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  EXPECT_LT(max_abs_error(out, expected), tolerance(n)) << "n=" << n;
}

TEST_P(Fft1DSizes, RoundTripIsIdentityUpToScale) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 7 + static_cast<unsigned>(n));

  Plan<float> fwd(n, Direction::Forward);
  Plan<float> bwd(n, Direction::Backward);
  Workspace<float> ws;
  std::vector<std::complex<float>> mid(n), back(n);
  fwd.execute(x.data(), 1, mid.data(), ws);
  bwd.execute(mid.data(), 1, back.data(), ws);

  for (auto& v : back) v /= static_cast<float>(n);
  EXPECT_LT(max_abs_error(back, x), tolerance(n)) << "n=" << n;
}

TEST_P(Fft1DSizes, ParsevalEnergyConservation) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 99 + static_cast<unsigned>(n));

  Plan<float> fwd(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  fwd.execute(x.data(), 1, out.data(), ws);

  double e_time = 0.0, e_freq = 0.0;
  for (auto v : x) e_time += std::norm(std::complex<double>(v));
  for (auto v : out) e_freq += std::norm(std::complex<double>(v));
  e_freq /= static_cast<double>(n);
  EXPECT_NEAR(e_freq, e_time, 1e-3 * e_time + 1e-6) << "n=" << n;
}

TEST_P(Fft1DSizes, InplaceMatchesOutOfPlace) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 5 + static_cast<unsigned>(n));

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  auto inplace = x;
  plan.execute_inplace(inplace.data(), ws);
  EXPECT_LT(max_abs_error(inplace, out), 1e-6) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Fft1DSizes,
    ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24,
                      25, 27, 32, 35, 48, 49, 64, 96, 100, 105, 128, 240, 256,
                      // primes and prime-ish sizes exercise Bluestein:
                      11, 13, 17, 31, 97, 101, 211,
                      // pipeline sizes:
                      512, 1024, 1536, 2048, 3072));

// ---------------------------------------------------------------------------

TEST(Fft1D, LinearityHolds) {
  const std::size_t n = 48;
  auto x = random_signal(n, 1);
  auto y = random_signal(n, 2);
  const std::complex<float> alpha{0.7f, -1.3f};

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> fx(n), fy(n), fz(n), z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = x[i] + alpha * y[i];
  plan.execute(x.data(), 1, fx.data(), ws);
  plan.execute(y.data(), 1, fy.data(), ws);
  plan.execute(z.data(), 1, fz.data(), ws);

  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(fz[i] - (fx[i] + alpha * fy[i])), 1e-4f);
}

TEST(Fft1D, DeltaTransformsToConstant) {
  const std::size_t n = 24;
  std::vector<std::complex<float>> x(n, {0.0f, 0.0f});
  x[0] = {1.0f, 0.0f};

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);
  for (auto v : out) EXPECT_LT(std::abs(v - std::complex<float>{1.0f, 0.0f}), 1e-5f);
}

TEST(Fft1D, SingleToneLandsOnOneBin) {
  const std::size_t n = 32;
  const std::size_t k0 = 5;
  std::vector<std::complex<float>> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k0 * j) /
                         static_cast<double>(n);
    x[j] = {static_cast<float>(std::cos(angle)),
            static_cast<float>(std::sin(angle))};
  }
  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);
  for (std::size_t k = 0; k < n; ++k) {
    const float expected = k == k0 ? static_cast<float>(n) : 0.0f;
    EXPECT_NEAR(std::abs(out[k]), expected, 2e-4f) << "bin " << k;
  }
}

TEST(Fft1D, StridedInputReadsCorrectElements) {
  const std::size_t n = 24, stride = 3;
  auto packed = random_signal(n, 12);
  std::vector<std::complex<float>> strided(n * stride, {-99.0f, -99.0f});
  for (std::size_t i = 0; i < n; ++i) strided[i * stride] = packed[i];

  Plan<float> plan(n, Direction::Forward);
  Workspace<float> ws;
  std::vector<std::complex<float>> a(n), b(n);
  plan.execute(packed.data(), 1, a.data(), ws);
  plan.execute(strided.data(), stride, b.data(), ws);
  EXPECT_LT(max_abs_error(a, b), 1e-6);
}

TEST(Fft1D, ThrowsOnZeroLength) {
  EXPECT_THROW(Plan<float>(0, Direction::Forward), idg::Error);
}

TEST(Fft1D, DoublePrecisionIsMoreAccurate) {
  const std::size_t n = 101;  // Bluestein path
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {dist(rng), dist(rng)};

  auto expected = idg::fft::naive_dft(x, Direction::Forward);
  Plan<double> plan(n, Direction::Forward);
  Workspace<double> ws;
  std::vector<std::complex<double>> out(n);
  plan.execute(x.data(), 1, out.data(), ws);

  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(out[i] - expected[i]));
  EXPECT_LT(err, 1e-10);
}

// ---------------------------------------------------------------------------

class Fft2DSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Fft2DSizes, MatchesRowColumnNaiveDft) {
  const auto [rows, cols] = GetParam();
  auto x = random_signal(rows * cols, 17);

  // Ground truth: naive DFT on rows, then on columns.
  std::vector<std::complex<float>> expected = x;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::complex<float>> row(expected.begin() + r * cols,
                                         expected.begin() + (r + 1) * cols);
    auto t = idg::fft::naive_dft(row, Direction::Forward);
    std::copy(t.begin(), t.end(), expected.begin() + r * cols);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<std::complex<float>> col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = expected[r * cols + c];
    auto t = idg::fft::naive_dft(col, Direction::Forward);
    for (std::size_t r = 0; r < rows; ++r) expected[r * cols + c] = t[r];
  }

  Plan2D<float> plan(rows, cols, Direction::Forward);
  Workspace<float> ws;
  auto data = x;
  plan.execute_inplace(data.data(), ws);
  EXPECT_LT(max_abs_error(data, expected), tolerance(rows * cols));
}

TEST_P(Fft2DSizes, RoundTrip) {
  const auto [rows, cols] = GetParam();
  auto x = random_signal(rows * cols, 23);

  Plan2D<float> fwd(rows, cols, Direction::Forward);
  Plan2D<float> bwd(rows, cols, Direction::Backward);
  Workspace<float> ws;
  auto data = x;
  fwd.execute_inplace(data.data(), ws);
  bwd.execute_inplace(data.data(), ws);
  const float scale = 1.0f / static_cast<float>(rows * cols);
  for (auto& v : data) v *= scale;
  EXPECT_LT(max_abs_error(data, x), tolerance(rows * cols));
}

using Dims = std::pair<std::size_t, std::size_t>;
INSTANTIATE_TEST_SUITE_P(Sizes, Fft2DSizes,
                         ::testing::Values(Dims{1, 1}, Dims{2, 2}, Dims{4, 4},
                                           Dims{8, 8}, Dims{24, 24},
                                           Dims{32, 32}, Dims{48, 48},
                                           Dims{64, 64}, Dims{16, 24},
                                           Dims{5, 7}, Dims{128, 128}));

TEST(Fft2D, DoublePlanOnFiveSevenSmoothSize) {
  const std::size_t n = 35;  // 5 * 7: the generic odd-radix butterfly
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::complex<double>> x(n * n);
  for (auto& v : x) v = {dist(rng), dist(rng)};

  std::vector<std::complex<double>> expected = x;
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::complex<double>> row(expected.begin() + r * n,
                                          expected.begin() + (r + 1) * n);
    auto t = idg::fft::naive_dft(row, Direction::Backward);
    std::copy(t.begin(), t.end(), expected.begin() + r * n);
  }
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<std::complex<double>> col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = expected[r * n + c];
    auto t = idg::fft::naive_dft(col, Direction::Backward);
    for (std::size_t r = 0; r < n; ++r) expected[r * n + c] = t[r];
  }

  Plan2D<double> plan(n, n, Direction::Backward);
  Workspace<double> ws;
  plan.execute_inplace(x.data(), ws);
  double err = 0.0;
  for (std::size_t i = 0; i < n * n; ++i)
    err = std::max(err, std::abs(x[i] - expected[i]));
  EXPECT_LT(err, 1e-11);
}

// ---------------------------------------------------------------------------
// Centred transforms: shift o DFT o shift, the grid and subgrid convention.

/// shift(DFT(shift(plane))) * scale by the naive DFT, in double.
std::vector<std::complex<float>> centred_dft(
    std::vector<std::complex<float>> plane, std::size_t n,
    Direction direction, double scale) {
  idg::fft::fftshift2d(plane.data(), n, n, -1);
  std::vector<std::complex<double>> work(plane.begin(), plane.end());
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::complex<double>> row(work.begin() + r * n,
                                          work.begin() + (r + 1) * n);
    auto t = idg::fft::naive_dft(row, direction);
    std::copy(t.begin(), t.end(), work.begin() + r * n);
  }
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<std::complex<double>> col(n);
    for (std::size_t r = 0; r < n; ++r) col[r] = work[r * n + c];
    auto t = idg::fft::naive_dft(col, direction);
    for (std::size_t r = 0; r < n; ++r) work[r * n + c] = t[r];
  }
  std::vector<std::complex<float>> out(n * n);
  for (std::size_t i = 0; i < n * n; ++i)
    out[i] = std::complex<float>(work[i] * scale);
  idg::fft::fftshift2d(out.data(), n, n, +1);
  return out;
}

std::vector<std::complex<float>> plane_of(const idg::Array3D<idg::cfloat>& a,
                                          std::size_t p) {
  const std::size_t nn = a.dim(1) * a.dim(2);
  return {a.data() + p * nn, a.data() + (p + 1) * nn};
}

class CentredSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CentredSizes, GridToImageMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_signal(4 * n * n, 61);
  idg::Array3D<idg::cfloat> cube(4, n, n);
  std::copy(x.begin(), x.end(), cube.data());
  idg::fft_grid_to_image(cube.view());
  for (std::size_t p = 0; p < 4; ++p) {
    const std::vector<std::complex<float>> in(x.begin() + p * n * n,
                                              x.begin() + (p + 1) * n * n);
    EXPECT_LT(max_abs_error(plane_of(cube, p),
                            centred_dft(in, n, Direction::Backward, 1.0)),
              tolerance(n * n))
        << "n=" << n << " pol " << p;
  }
}

TEST_P(CentredSizes, SubgridFftIsPositionIndependentAndMatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::size_t count = 37;  // 148 planes: the last lane block is ragged
  const auto subgrid = random_signal(4 * n * n, 71);
  const auto filler = random_signal(count * 4 * n * n, 72);

  // The subgrid alone, then first, in the middle and last of a batch.
  idg::Array4D<idg::cfloat> single(1, 4, n, n);
  std::copy(subgrid.begin(), subgrid.end(), single.data());
  idg::subgrid_fft(idg::SubgridFftDirection::ToFourier, single.view(), 1);
  for (const std::size_t at : {std::size_t{0}, count / 2, count - 1}) {
    idg::Array4D<idg::cfloat> batch(count, 4, n, n);
    std::copy(filler.begin(), filler.end(), batch.data());
    std::copy(subgrid.begin(), subgrid.end(), batch.data() + at * 4 * n * n);
    idg::subgrid_fft(idg::SubgridFftDirection::ToFourier, batch.view(), count);
    EXPECT_EQ(std::memcmp(batch.data() + at * 4 * n * n, single.data(),
                          single.bytes()),
              0)
        << "subgrid " << at << " of " << count;
  }

  const double scale = 1.0 / static_cast<double>(n * n);
  for (std::size_t p = 0; p < 4; ++p) {
    const std::vector<std::complex<float>> in(
        subgrid.begin() + p * n * n, subgrid.begin() + (p + 1) * n * n);
    const std::vector<std::complex<float>> got(
        single.data() + p * n * n, single.data() + (p + 1) * n * n);
    EXPECT_LT(max_abs_error(got, centred_dft(in, n, Direction::Forward, scale)),
              tolerance(n * n) * scale)
        << "n=" << n << " pol " << p;
  }
}

// Even sizes fold the shifts into checkerboard signs; odd sizes shift.
INSTANTIATE_TEST_SUITE_P(Sizes, CentredSizes,
                         ::testing::Values(24, 25, 32, 15));

TEST(GridFft, ResultDoesNotDependOnThreadCount) {
  const std::size_t n = 512;
  const auto x = random_signal(4 * n * n, 81);
  idg::Array3D<idg::cfloat> one(4, n, n), four(4, n, n);
  std::copy(x.begin(), x.end(), one.data());
  std::copy(x.begin(), x.end(), four.data());
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  idg::fft_grid_to_image(one.view());
  omp_set_num_threads(4);
  idg::fft_grid_to_image(four.view());
  omp_set_num_threads(threads);
  EXPECT_EQ(std::memcmp(one.data(), four.data(), one.bytes()), 0);
}

TEST(GridFft, DeltaPixelsBecomePlaneWavesAt2048) {
  // grid delta a at (y0, x0) -> image a * exp(+2 pi i ((x0 - n/2)(x - n/2)
  // + (y0 - n/2)(y - n/2)) / n), summed over the deltas of each plane.
  const std::size_t n = 2048;
  struct Delta {
    std::size_t pol, y, x;
    std::complex<double> a;
  };
  const std::vector<Delta> deltas = {{0, 1024, 1024, {1.0, 0.0}},
                                     {0, 1030, 1000, {0.5, -0.25}},
                                     {1, 17, 2040, {-0.75, 0.5}},
                                     {2, 1500, 3, {0.0, 1.0}},
                                     {3, 1024, 1025, {0.25, 0.25}},
                                     {3, 2047, 0, {1.0, 0.5}}};
  idg::Array3D<idg::cfloat> cube(4, n, n);
  for (const Delta& d : deltas)
    cube(d.pol, d.y, d.x) = std::complex<float>(d.a);
  idg::fft_grid_to_image(cube.view());

  std::vector<std::complex<double>> root(n);
  for (std::size_t k = 0; k < n; ++k)
    root[k] = std::polar(1.0, 2.0 * std::numbers::pi * static_cast<double>(k) /
                                  static_cast<double>(n));
  const auto centred = [&](std::size_t i) {
    return static_cast<long>(i) - static_cast<long>(n / 2);
  };
  double err = 0.0;
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        std::complex<double> expected{};
        for (const Delta& d : deltas) {
          if (d.pol != p) continue;
          const long phase = centred(d.x) * centred(x) + centred(d.y) * centred(y);
          const long k = ((phase % static_cast<long>(n)) + static_cast<long>(n)) %
                         static_cast<long>(n);
          expected += d.a * root[static_cast<std::size_t>(k)];
        }
        err = std::max(err, std::abs(std::complex<double>(cube(p, y, x)) -
                                     expected));
      }
    }
  }
  EXPECT_LT(err, 1e-5);
}

// ---------------------------------------------------------------------------

TEST(FftShift, EvenSizeIsInvolution) {
  const std::size_t n = 24;
  auto x = random_signal(n * n, 31);
  auto y = x;
  idg::fft::fftshift2d(y.data(), n, n, +1);
  EXPECT_NE(max_abs_error(x, y), 0.0);  // actually moved something
  idg::fft::fftshift2d(y.data(), n, n, +1);
  EXPECT_EQ(max_abs_error(x, y), 0.0);
}

TEST(FftShift, OddSizeForwardBackwardCancel) {
  const std::size_t n = 5;
  auto x = random_signal(n * n, 37);
  auto y = x;
  idg::fft::fftshift2d(y.data(), n, n, +1);
  idg::fft::fftshift2d(y.data(), n, n, -1);
  EXPECT_EQ(max_abs_error(x, y), 0.0);
}

TEST(FftShift, MovesCenterToOrigin) {
  const std::size_t n = 8;
  std::vector<std::complex<float>> x(n * n, {0.0f, 0.0f});
  x[(n / 2) * n + (n / 2)] = {1.0f, 0.0f};
  idg::fft::fftshift2d(x.data(), n, n, +1);
  EXPECT_FLOAT_EQ(x[0].real(), 1.0f);
}

}  // namespace
