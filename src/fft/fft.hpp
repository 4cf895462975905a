// FFT substrate for the IDG reproduction.
//
// The paper uses MKL (CPU), cuFFT and clFFT (GPU) for the subgrid and grid
// transforms. Neither FFTW nor MKL is available in this container, so this
// module implements the transform from scratch (see DESIGN.md §2) as ONE
// engine:
//
//  * an iterative Stockham autosort FFT over lane blocks. Data is split into
//    re/im arrays and every element holds kLanes<T> (16 floats, 8 doubles)
//    independent transforms side by side, so every butterfly is an
//    `omp simd` loop over the lanes. Radix-4, -2 and -3 butterflies plus one
//    generic small-odd-radix butterfly (5, 7) cover every 2^a 3^b 5^c 7^d
//    length (subgrids 2^a*3^b, grids powers of two, w-kernel rasters);
//  * Bluestein's chirp-z algorithm, on the same engine, for other lengths
//    (primes), so the library never rejects a size;
//  * 2-D transforms as row and column passes over lane blocks: either L rows
//    / L columns of one plane per block, or one small plane per lane. Even
//    square planes can fold fftshift o FFT o fftshift into exact checkerboard
//    sign flips (Plan2D below);
//  * fftshift helpers (the grids keep DC at the center pixel N/2).
//
// Conventions: Forward uses exp(-2*pi*i*jk/n), Backward uses exp(+2*pi*i*jk/n);
// both are UNNORMALIZED. Callers apply 1/N scaling where DESIGN.md §6
// requires it.
//
// Every lane runs the same instruction sequence (the simd loops have a
// compile-time trip count of kLanes<T>, so no lane ever takes a scalar tail
// path) and ragged blocks are padded with zero lanes. A transform's result is
// therefore bit-identical whichever lane, block or thread computed it — the
// sync == sharded == daemon invariants rely on this. Plans are immutable
// after construction; execution is allocation-free apart from a per-thread
// Workspace, so plans are shared across OpenMP threads.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"

namespace idg::fft {

enum class Direction {
  Forward,   ///< exp(-2*pi*i*jk/n)
  Backward,  ///< exp(+2*pi*i*jk/n)
};

/// Transforms per lane block: one 64-byte vector of T.
template <typename T>
inline constexpr std::size_t kLanes = 64 / sizeof(T);

/// Scratch memory reused across executions. One Workspace per thread; it
/// grows on demand and is never shrunk. Storage is 64-byte aligned.
template <typename T>
class Workspace {
 public:
  /// At least `count` elements of scratch; previous contents are lost when
  /// the buffer grows.
  T* get(std::size_t count) {
    if (buffer_.size() < count) {
      buffer_.clear();
      buffer_.resize(count);
    }
    return buffer_.data();
  }

 private:
  AlignedVector<T> buffer_;
};

namespace detail {

inline bool is_smooth(std::size_t n) {
  for (int p : {2, 3, 5, 7})
    while (n % static_cast<std::size_t>(p) == 0) n /= static_cast<std::size_t>(p);
  return n == 1;
}

inline std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

/// The radix of the next Stockham stage: 4 while it divides n (fewest
/// passes over the data), then 2, 3 and the odd radices.
inline int pick_radix(std::size_t n) {
  for (int r : {4, 2, 3, 5, 7})
    if (n % static_cast<std::size_t>(r) == 0) return r;
  return 0;
}

/// exp(sign * 2*pi*i * k / n), evaluated in double.
template <typename T>
std::complex<T> unit_root(std::size_t n, std::size_t k, Direction direction) {
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  const double angle = sign * 2.0 * std::numbers::pi *
                       static_cast<double>(k % n) / static_cast<double>(n);
  return {static_cast<T>(std::cos(angle)), static_cast<T>(std::sin(angle))};
}

/// Split re/im lane-block storage: value i of element k lives at
/// re[k * width + i] / im[k * width + i].
template <typename T>
struct Block {
  T* re;
  T* im;
  Block offset(std::size_t n) const { return {re + n, im + n}; }
};

/// Calls f(i) for every i < count (a multiple of kLanes<T>), one `omp simd`
/// loop of exactly kLanes<T> iterations at a time.
template <typename T, typename F>
inline void for_lanes(std::size_t count, F&& f) {
  for (std::size_t i0 = 0; i0 < count; i0 += kLanes<T>) {
#pragma omp simd
    for (std::size_t i = i0; i < i0 + kLanes<T>; ++i) f(i);
  }
}

}  // namespace detail

template <typename T>
class Plan2D;

/// One-dimensional complex-to-complex FFT plan of fixed length and
/// direction. Thread-safe for concurrent execute() calls as long as each
/// thread passes its own Workspace.
template <typename T>
class Plan {
 public:
  Plan(std::size_t n, Direction direction) : n_(n), direction_(direction) {
    IDG_CHECK(n >= 1, "FFT length must be positive");
    if (detail::is_smooth(n)) {
      build_stages();
    } else {
      build_bluestein();
    }
  }

  std::size_t size() const { return n_; }
  Direction direction() const { return direction_; }

  /// Transforms n elements read from `in` with stride `in_stride` into the
  /// contiguous output `out`. The input is read completely before the
  /// output is written, so `out` may alias `in` (with in_stride == 1).
  void execute(const std::complex<T>* in, std::size_t in_stride,
               std::complex<T>* out, Workspace<T>& ws) const {
    // The one vector rides in lane 0 of a zero-padded lane block.
    constexpr std::size_t L = kLanes<T>;
    const std::size_t nl = n_ * L;
    T* buf = ws.get(4 * nl + scratch_size(L));
    const detail::Block<T> x{buf, buf + nl};
    const detail::Block<T> y{buf + 2 * nl, buf + 3 * nl};
    std::fill(buf, buf + 2 * nl, T(0));
    for (std::size_t k = 0; k < n_; ++k) {
      x.re[k * L] = in[k * in_stride].real();
      x.im[k * L] = in[k * in_stride].imag();
    }
    const detail::Block<T> r = run(x, y, L, buf + 4 * nl);
    for (std::size_t k = 0; k < n_; ++k) out[k] = {r.re[k * L], r.im[k * L]};
  }

  /// In-place contiguous transform.
  void execute_inplace(std::complex<T>* data, Workspace<T>& ws) const {
    execute(data, 1, data, ws);
  }

 private:
  friend class Plan2D<T>;

  /// One Stockham pass: `stride` transforms of length radix * m, each read
  /// at x[q + stride * (p + j * m)] and written, twiddled, to
  /// y[q + stride * (radix * p + k)].
  struct Stage {
    int radix;
    std::size_t m;
    std::size_t stride;
    std::vector<T> tw_re;  ///< w_{radix*m}^(p*k) at [(k - 1) * m + p]
    std::vector<T> tw_im;
  };

  void build_stages() {
    std::size_t len = n_, stride = 1;
    while (len > 1) {
      const int r = detail::pick_radix(len);
      IDG_ASSERT(r != 0, "non-smooth size in the Stockham path");
      Stage st{r, len / static_cast<std::size_t>(r), stride, {}, {}};
      for (int k = 1; k < r; ++k) {
        for (std::size_t p = 0; p < st.m; ++p) {
          const std::complex<T> w = detail::unit_root<T>(
              len, p * static_cast<std::size_t>(k), direction_);
          st.tw_re.push_back(w.real());
          st.tw_im.push_back(w.imag());
        }
      }
      stride *= static_cast<std::size_t>(r);
      len = st.m;
      stages_.push_back(std::move(st));
    }
  }

  /// T values of scratch run() needs beyond its two blocks.
  std::size_t scratch_size(std::size_t width) const {
    return bluestein_ ? 4 * fwd_->size() * width : 0;
  }

  /// Transforms the n elements of `x`, each `width` values wide (a multiple
  /// of kLanes<T>), using `y` (same size) and `scratch` (scratch_size(width)
  /// values) as work space. Returns whichever of x and y holds the result;
  /// which one depends only on the plan.
  detail::Block<T> run(detail::Block<T> x, detail::Block<T> y,
                       std::size_t width, T* scratch) const {
    if (bluestein_) return run_bluestein(x, width, scratch);
    const T sign = direction_ == Direction::Forward ? T(1) : T(-1);
    for (const Stage& st : stages_) {
      switch (st.radix) {
        case 4: radix4(st, x, y, width, sign); break;
        case 2: radix2(st, x, y, width); break;
        case 3: radix3(st, x, y, width, sign); break;
        default: radix_odd(st, x, y, width); break;
      }
      std::swap(x, y);
    }
    return x;
  }

  // y = (ar + i ai) * (wr + i wi), written through the output refs.
  static void twiddle(T ar, T ai, T wr, T wi, T& yr, T& yi) {
    yr = ar * wr - ai * wi;
    yi = ar * wi + ai * wr;
  }

  static void radix2(const Stage& st, detail::Block<T> in,
                     detail::Block<T> out, std::size_t width) {
    const std::size_t m = st.m, sw = st.stride * width;
    for (std::size_t p = 0; p < m; ++p) {
      const T w1r = st.tw_re[p], w1i = st.tw_im[p];
      const T *a0r = in.re + p * sw, *a0i = in.im + p * sw;
      const T *a1r = a0r + m * sw, *a1i = a0i + m * sw;
      T *y0r = out.re + 2 * p * sw, *y0i = out.im + 2 * p * sw;
      T *y1r = y0r + sw, *y1i = y0i + sw;
      detail::for_lanes<T>(sw, [&](std::size_t i) {
        y0r[i] = a0r[i] + a1r[i];
        y0i[i] = a0i[i] + a1i[i];
        twiddle(a0r[i] - a1r[i], a0i[i] - a1i[i], w1r, w1i, y1r[i], y1i[i]);
      });
    }
  }

  // sign = +1 forward, -1 backward: the forward butterfly multiplies the
  // odd difference by -i (w_4 = -i), the backward one by +i.
  static void radix4(const Stage& st, detail::Block<T> in,
                     detail::Block<T> out, std::size_t width, T sign) {
    const std::size_t m = st.m, sw = st.stride * width;
    for (std::size_t p = 0; p < m; ++p) {
      const T w1r = st.tw_re[p], w1i = st.tw_im[p];
      const T w2r = st.tw_re[m + p], w2i = st.tw_im[m + p];
      const T w3r = st.tw_re[2 * m + p], w3i = st.tw_im[2 * m + p];
      const T *a0r = in.re + p * sw, *a0i = in.im + p * sw;
      const T *a1r = a0r + m * sw, *a1i = a0i + m * sw;
      const T *a2r = a1r + m * sw, *a2i = a1i + m * sw;
      const T *a3r = a2r + m * sw, *a3i = a2i + m * sw;
      T *y0r = out.re + 4 * p * sw, *y0i = out.im + 4 * p * sw;
      T *y1r = y0r + sw, *y1i = y0i + sw;
      T *y2r = y1r + sw, *y2i = y1i + sw;
      T *y3r = y2r + sw, *y3i = y2i + sw;
      detail::for_lanes<T>(sw, [&](std::size_t i) {
        const T t0r = a0r[i] + a2r[i], t0i = a0i[i] + a2i[i];
        const T t1r = a0r[i] - a2r[i], t1i = a0i[i] - a2i[i];
        const T t2r = a1r[i] + a3r[i], t2i = a1i[i] + a3i[i];
        const T t3r = a1r[i] - a3r[i], t3i = a1i[i] - a3i[i];
        y0r[i] = t0r + t2r;
        y0i[i] = t0i + t2i;
        twiddle(t1r + sign * t3i, t1i - sign * t3r, w1r, w1i, y1r[i], y1i[i]);
        twiddle(t0r - t2r, t0i - t2i, w2r, w2i, y2r[i], y2i[i]);
        twiddle(t1r - sign * t3i, t1i + sign * t3r, w3r, w3i, y3r[i], y3i[i]);
      });
    }
  }

  static void radix3(const Stage& st, detail::Block<T> in,
                     detail::Block<T> out, std::size_t width, T sign) {
    const std::size_t m = st.m, sw = st.stride * width;
    // Forward w_3 = -1/2 - i*sqrt(3)/2; backward conjugates it.
    const T c = sign * static_cast<T>(std::sqrt(3.0) / 2.0);
    for (std::size_t p = 0; p < m; ++p) {
      const T w1r = st.tw_re[p], w1i = st.tw_im[p];
      const T w2r = st.tw_re[m + p], w2i = st.tw_im[m + p];
      const T *a0r = in.re + p * sw, *a0i = in.im + p * sw;
      const T *a1r = a0r + m * sw, *a1i = a0i + m * sw;
      const T *a2r = a1r + m * sw, *a2i = a1i + m * sw;
      T *y0r = out.re + 3 * p * sw, *y0i = out.im + 3 * p * sw;
      T *y1r = y0r + sw, *y1i = y0i + sw;
      T *y2r = y1r + sw, *y2i = y1i + sw;
      detail::for_lanes<T>(sw, [&](std::size_t i) {
        const T t1r = a1r[i] + a2r[i], t1i = a1i[i] + a2i[i];
        const T t2r = a1r[i] - a2r[i], t2i = a1i[i] - a2i[i];
        const T mr = a0r[i] - T(0.5) * t1r, mi = a0i[i] - T(0.5) * t1i;
        y0r[i] = a0r[i] + t1r;
        y0i[i] = a0i[i] + t1i;
        twiddle(mr + c * t2i, mi - c * t2r, w1r, w1i, y1r[i], y1i[i]);
        twiddle(mr - c * t2i, mi + c * t2r, w2r, w2i, y2r[i], y2i[i]);
      });
    }
  }

  /// Direct radix-r DFT butterfly for the remaining small odd radices.
  void radix_odd(const Stage& st, detail::Block<T> in, detail::Block<T> out,
                 std::size_t width) const {
    constexpr int kMaxRadix = 7;
    const int r = st.radix;
    IDG_ASSERT(r <= kMaxRadix, "radix beyond the generic butterfly");
    const std::size_t m = st.m, sw = st.stride * width;
    const auto ur = static_cast<std::size_t>(r);
    T root_re[kMaxRadix], root_im[kMaxRadix];  // w_r^q
    for (std::size_t q = 0; q < ur; ++q) {
      const std::complex<T> w = detail::unit_root<T>(ur, q, direction_);
      root_re[q] = w.real();
      root_im[q] = w.imag();
    }
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t k = 0; k < ur; ++k) {
        T cr[kMaxRadix], ci[kMaxRadix];  // w_r^(j*k)
        for (std::size_t j = 0; j < ur; ++j) {
          cr[j] = root_re[j * k % ur];
          ci[j] = root_im[j * k % ur];
        }
        const T wr = k == 0 ? T(1) : st.tw_re[(k - 1) * m + p];
        const T wi = k == 0 ? T(0) : st.tw_im[(k - 1) * m + p];
        T* yr = out.re + (ur * p + k) * sw;
        T* yi = out.im + (ur * p + k) * sw;
        detail::for_lanes<T>(sw, [&](std::size_t i) {
          T sr = in.re[p * sw + i], si = in.im[p * sw + i];
          for (std::size_t j = 1; j < ur; ++j) {
            const T ar = in.re[(p + j * m) * sw + i];
            const T ai = in.im[(p + j * m) * sw + i];
            sr += ar * cr[j] - ai * ci[j];
            si += ar * ci[j] + ai * cr[j];
          }
          twiddle(sr, si, wr, wi, yr[i], yi[i]);
        });
      }
    }
  }

  // --- Bluestein ----------------------------------------------------------

  void build_bluestein() {
    bluestein_ = true;
    const std::size_t m = detail::next_pow2(2 * n_ - 1);
    fwd_ = std::make_unique<Plan>(m, Direction::Forward);
    bwd_ = std::make_unique<Plan>(m, Direction::Backward);
    chirp_re_.resize(n_);
    chirp_im_.resize(n_);
    const double sign = direction_ == Direction::Forward ? -1.0 : 1.0;
    for (std::size_t k = 0; k < n_; ++k) {
      // exp(sign * pi * i * k^2 / n); reduce k^2 mod 2n to keep the argument
      // small for large n.
      const std::size_t k2 = (k * k) % (2 * n_);
      const double angle =
          sign * std::numbers::pi * static_cast<double>(k2) /
          static_cast<double>(n_);
      chirp_re_[k] = static_cast<T>(std::cos(angle));
      chirp_im_[k] = static_cast<T>(std::sin(angle));
    }
    // FFT of the zero-padded conjugate chirp (the convolution kernel).
    std::vector<std::complex<T>> b(m, std::complex<T>{});
    b[0] = {chirp_re_[0], -chirp_im_[0]};
    for (std::size_t k = 1; k < n_; ++k) {
      b[k] = {chirp_re_[k], -chirp_im_[k]};
      b[m - k] = b[k];
    }
    Workspace<T> ws;
    fwd_->execute_inplace(b.data(), ws);
    kernel_re_.resize(m);
    kernel_im_.resize(m);
    for (std::size_t k = 0; k < m; ++k) {
      kernel_re_[k] = b[k].real();
      kernel_im_[k] = b[k].imag();
    }
  }

  detail::Block<T> run_bluestein(detail::Block<T> x, std::size_t width,
                                 T* scratch) const {
    const std::size_t m = fwd_->size(), mw = m * width;
    const detail::Block<T> a{scratch, scratch + mw};
    const detail::Block<T> b{scratch + 2 * mw, scratch + 3 * mw};
    for (std::size_t k = 0; k < n_; ++k) {
      const T cr = chirp_re_[k], ci = chirp_im_[k];
      const std::size_t o = k * width;
      detail::for_lanes<T>(width, [&](std::size_t i) {
        twiddle(x.re[o + i], x.im[o + i], cr, ci, a.re[o + i], a.im[o + i]);
      });
    }
    std::fill(a.re + n_ * width, a.re + mw, T(0));
    std::fill(a.im + n_ * width, a.im + mw, T(0));
    const detail::Block<T> f = fwd_->run(a, b, width, nullptr);
    for (std::size_t k = 0; k < m; ++k) {
      const T kr = kernel_re_[k], ki = kernel_im_[k];
      const std::size_t o = k * width;
      detail::for_lanes<T>(width, [&](std::size_t i) {
        twiddle(f.re[o + i], f.im[o + i], kr, ki, f.re[o + i], f.im[o + i]);
      });
    }
    const detail::Block<T> g =
        bwd_->run(f, f.re == a.re ? b : a, width, nullptr);
    const T scale = static_cast<T>(1.0 / static_cast<double>(m));
    for (std::size_t k = 0; k < n_; ++k) {
      const T cr = chirp_re_[k] * scale, ci = chirp_im_[k] * scale;
      const std::size_t o = k * width;
      detail::for_lanes<T>(width, [&](std::size_t i) {
        twiddle(g.re[o + i], g.im[o + i], cr, ci, x.re[o + i], x.im[o + i]);
      });
    }
    return x;
  }

  std::size_t n_;
  Direction direction_;
  std::vector<Stage> stages_;

  bool bluestein_ = false;
  std::unique_ptr<Plan> fwd_;
  std::unique_ptr<Plan> bwd_;
  std::vector<T> chirp_re_, chirp_im_;
  std::vector<T> kernel_re_, kernel_im_;
};

/// Two-dimensional complex FFT over contiguous row-major rows x cols planes.
///
/// A plane is transformed as kLanes<T>-wide blocks: transform_rows gathers L
/// rows into one lane block, transform_columns L columns. Every row block of
/// a plane must finish before any of its column blocks starts; blocks within
/// one pass are independent, so callers may run them in parallel.
/// transform_planes instead gives each of up to L small planes its own lane.
///
/// `checkerboard` (even square planes only) folds the centred transform
/// fftshift o FFT o fftshift into sign flips: the input is negated where
/// y + x is odd and so is the output (the per-axis factors (-1)^(n/2)
/// cancel in 2-D). `scale` multiplies the output.
template <typename T>
class Plan2D {
 public:
  Plan2D(std::size_t rows, std::size_t cols, Direction direction)
      : rows_(rows),
        cols_(cols),
        row_plan_(cols, direction),
        col_plan_(rows, direction) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Serial 2-D transform of one plane.
  void execute_inplace(std::complex<T>* data, Workspace<T>& ws) const {
    for (std::size_t b = 0; b < row_blocks(); ++b) transform_rows(data, b, ws);
    for (std::size_t b = 0; b < column_blocks(); ++b)
      transform_columns(data, b, ws);
  }

  std::size_t row_blocks() const { return (rows_ + L - 1) / L; }
  std::size_t column_blocks() const { return (cols_ + L - 1) / L; }

  /// Transforms rows [block * L, block * L + L) of `data` along x.
  void transform_rows(std::complex<T>* data, std::size_t block,
                      Workspace<T>& ws, bool checkerboard = false) const {
    const std::size_t r0 = block * L, k = std::min(L, rows_ - r0);
    const std::size_t nl = cols_ * L;
    T* buf = ws.get(4 * nl + row_plan_.scratch_size(L));
    const detail::Block<T> x{buf, buf + nl};
    // Transposes through L x L tiles so each tile stays in L1.
    for (std::size_t c0 = 0; c0 < cols_; c0 += L) {
      const std::size_t c1 = std::min(cols_, c0 + L);
      for (std::size_t l = 0; l < L; ++l) {
        const std::complex<T>* row = data + (r0 + l) * cols_;
        const T s_even = sign_at(checkerboard, r0 + l, T(1));
        const T s_odd = sign_at(checkerboard, r0 + l + 1, T(1));
        for (std::size_t c = c0; c < c1; ++c) {
          const T s = c & 1 ? s_odd : s_even;
          x.re[c * L + l] = l < k ? s * row[c].real() : T(0);
          x.im[c * L + l] = l < k ? s * row[c].imag() : T(0);
        }
      }
    }
    const detail::Block<T> r =
        row_plan_.run(x, {buf + 2 * nl, buf + 3 * nl}, L, buf + 4 * nl);
    for (std::size_t c0 = 0; c0 < cols_; c0 += L) {
      const std::size_t c1 = std::min(cols_, c0 + L);
      for (std::size_t l = 0; l < k; ++l) {
        std::complex<T>* row = data + (r0 + l) * cols_;
        for (std::size_t c = c0; c < c1; ++c)
          row[c] = {r.re[c * L + l], r.im[c * L + l]};
      }
    }
  }

  /// Transforms columns [block * L, block * L + L) of `data` along y.
  void transform_columns(std::complex<T>* data, std::size_t block,
                         Workspace<T>& ws, bool checkerboard = false,
                         T scale = T(1)) const {
    const std::size_t c0 = block * L, k = std::min(L, cols_ - c0);
    const std::size_t nl = rows_ * L;
    T* buf = ws.get(4 * nl + col_plan_.scratch_size(L));
    const detail::Block<T> x{buf, buf + nl};
    for (std::size_t y = 0; y < rows_; ++y)
      copy_lanes(data + y * cols_ + c0, k, x.re + y * L, x.im + y * L);
    const detail::Block<T> r =
        col_plan_.run(x, {buf + 2 * nl, buf + 3 * nl}, L, buf + 4 * nl);
    for (std::size_t y = 0; y < rows_; ++y) {
      const T s_even = sign_at(checkerboard, y + c0, scale);
      const T s_odd = sign_at(checkerboard, y + c0 + 1, scale);
      std::complex<T>* dst = data + y * cols_ + c0;
      const T* re = r.re + y * L;
      const T* im = r.im + y * L;
      if (k == L) {
        // Whole vectors of interleaved stores: scalar ones stall on the
        // strided rows' cache misses.
        T* out = reinterpret_cast<T*>(dst);
#pragma omp simd
        for (std::size_t l = 0; l < L; ++l) {
          const T s = l & 1 ? s_odd : s_even;
          out[2 * l] = s * re[l];
          out[2 * l + 1] = s * im[l];
        }
      } else {
        for (std::size_t l = 0; l < k; ++l) {
          const T s = l & 1 ? s_odd : s_even;
          dst[l] = {s * re[l], s * im[l]};
        }
      }
    }
  }

  /// Transforms `count` <= kLanes<T> consecutive planes (rows x cols each)
  /// in place, one plane per lane.
  void transform_planes(std::complex<T>* planes, std::size_t count,
                        Workspace<T>& ws, bool checkerboard,
                        T scale) const {
    IDG_ASSERT(count <= L, "more planes than lanes");
    const std::size_t nn = rows_ * cols_, nl = nn * L;
    T* buf = ws.get(4 * nl + std::max(row_plan_.scratch_size(L),
                                      col_plan_.scratch_size(cols_ * L)));
    T* scratch = buf + 4 * nl;
    const detail::Block<T> a{buf, buf + nl};
    const detail::Block<T> b{buf + 2 * nl, buf + 3 * nl};
    for (std::size_t y = 0; y < rows_; ++y) {
      for (std::size_t x = 0; x < cols_; ++x) {
        const std::size_t i = y * cols_ + x;
        const T s = sign_at(checkerboard, y + x, T(1));
        for (std::size_t l = 0; l < L; ++l) {
          a.re[i * L + l] = l < count ? s * planes[l * nn + i].real() : T(0);
          a.im[i * L + l] = l < count ? s * planes[l * nn + i].imag() : T(0);
        }
      }
    }
    bool rows_in_a = true;
    for (std::size_t y = 0; y < rows_; ++y) {
      const std::size_t o = y * cols_ * L;
      rows_in_a = row_plan_.run(a.offset(o), b.offset(o), L, scratch).re ==
                  a.re + o;
    }
    const detail::Block<T> r =
        col_plan_.run(rows_in_a ? a : b, rows_in_a ? b : a, cols_ * L,
                      scratch);
    for (std::size_t l = 0; l < count; ++l) {
      std::complex<T>* plane = planes + l * nn;
      for (std::size_t y = 0; y < rows_; ++y) {
        for (std::size_t x = 0; x < cols_; ++x) {
          const std::size_t i = y * cols_ + x;
          const T s = sign_at(checkerboard, y + x, scale);
          plane[i] = {s * r.re[i * L + l], s * r.im[i * L + l]};
        }
      }
    }
  }

 private:
  static constexpr std::size_t L = kLanes<T>;

  /// Deinterleaves src[0, k) into lane slots re/im[0, L), zero beyond k.
  static void copy_lanes(const std::complex<T>* src, std::size_t k, T* re,
                         T* im) {
    if (k == L) {
      const T* in = reinterpret_cast<const T*>(src);
#pragma omp simd
      for (std::size_t l = 0; l < L; ++l) {
        re[l] = in[2 * l];
        im[l] = in[2 * l + 1];
      }
      return;
    }
    for (std::size_t l = 0; l < L; ++l) {
      re[l] = l < k ? src[l].real() : T(0);
      im[l] = l < k ? src[l].imag() : T(0);
    }
  }

  /// `scale`, negated when checkerboard signs apply and y + x is odd.
  static T sign_at(bool checkerboard, std::size_t y_plus_x, T scale) {
    return checkerboard && (y_plus_x & 1) ? -scale : scale;
  }

  std::size_t rows_;
  std::size_t cols_;
  Plan<T> row_plan_;
  Plan<T> col_plan_;
};

/// The process-wide square plan for (n, direction), built on first use.
/// Plans are immutable, so the cached one is shared by every thread.
template <typename T>
const Plan2D<T>& cached_plan2d(std::size_t n, Direction direction) {
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, Direction>,
                  std::unique_ptr<const Plan2D<T>>>
      cache;
  std::lock_guard lock(mutex);
  auto& slot = cache[{n, direction}];
  if (!slot) slot = std::make_unique<const Plan2D<T>>(n, n, direction);
  return *slot;
}

/// Swaps quadrants so that the zero-frequency (or image-center) sample moves
/// between index 0 and index n/2 conventions. For even sizes this is an
/// involution and runs allocation-free (pairwise quadrant swap); for odd
/// sizes use shift=+1 (fftshift) / -1 (ifftshift).
template <typename T>
void fftshift2d(std::complex<T>* data, std::size_t rows, std::size_t cols,
                int sign = +1) {
  if (rows % 2 == 0 && cols % 2 == 0) {
    const std::size_t hr = rows / 2, hc = cols / 2;
    for (std::size_t r = 0; r < hr; ++r) {
      std::complex<T>* top = data + r * cols;
      std::complex<T>* bottom = data + (r + hr) * cols;
      for (std::size_t c = 0; c < hc; ++c) {
        std::swap(top[c], bottom[c + hc]);      // Q1 <-> Q4
        std::swap(top[c + hc], bottom[c]);      // Q2 <-> Q3
      }
    }
    return;
  }
  // Odd sizes: circular shift through a temporary.
  const std::size_t rshift =
      sign > 0 ? rows / 2 : rows - rows / 2;
  const std::size_t cshift =
      sign > 0 ? cols / 2 : cols - cols / 2;
  std::vector<std::complex<T>> tmp(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t rr = (r + rshift) % rows;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t cc = (c + cshift) % cols;
      tmp[rr * cols + cc] = data[r * cols + c];
    }
  }
  std::copy(tmp.begin(), tmp.end(), data);
}

/// Reference O(n^2) DFT used by the unit tests as ground truth.
template <typename T>
std::vector<std::complex<T>> naive_dft(const std::vector<std::complex<T>>& in,
                                       Direction direction) {
  const std::size_t n = in.size();
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  std::vector<std::complex<T>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>((j * k) % n) /
                           static_cast<double>(n);
      acc += std::complex<double>(in[j]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = {static_cast<T>(acc.real()), static_cast<T>(acc.imag())};
  }
  return out;
}

}  // namespace idg::fft
