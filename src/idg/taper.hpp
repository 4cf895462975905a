// Anti-aliasing taper functions (image-domain).
//
// IDG multiplies every subgrid by an anti-aliasing taper in the image domain
// (paper §IV: "the tapering function that [is] used to reduce aliasing (such
// as a spheroidal, which is used in our case)"). Two families are available
// (Parameters::taper, DESIGN.md §13):
//
//  * PSWF — Schwab's classic rational approximation of the zero-order
//    prolate spheroidal wave function with m = 6, alpha = 1 — the same
//    function CASA and the ASTRON IDG reference use. The default; its
//    out-of-band leakage (~3e-4 dirty-image l2) bounds the achievable
//    accuracy.
//  * ES — the image-domain dual of ducc wgridder's exponential-of-
//    semicircle uv kernel exp(beta*(sqrt(1-nu^2)-1)) with support
//    Parameters::kernel_size uv cells; leakage falls exponentially with
//    the support (~3e-6 at support 12), enabling the tight epsilon tiers.
//
// Either taper is evaluated as a separable product taper(y, x) =
// line(eta_y) * line(eta_x) with eta = 2*(x - N/2)/N over the subgrid. The
// identical function evaluated on the master-grid raster provides the
// image-plane grid correction (division after imaging / before
// degridding). W-projection reuses (1 - eta^2) * pswf(eta) as its
// uv-domain gridding function.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/array.hpp"
#include "idg/parameters.hpp"

namespace idg {

/// Schwab's rational approximation of the prolate spheroidal wave function
/// psi_{0,6}(pi*m/2 * eta) / psi_{0,6}(pi*m/2), for |eta| <= 1. Returns 0
/// outside the support. This is the image-plane taper shape.
double pswf(double eta);

/// The uv-plane gridding (convolution) function: (1 - eta^2) * pswf(eta).
double pswf_gridding_function(double eta);

/// One axis of the ES (exponential-of-semicircle) image-plane taper on an
/// n-pixel raster: T(eta(x)) with T(eta) = int_{-1}^{1}
/// exp(beta*(sqrt(1-nu^2)-1)) * cos(pi*support/2 * nu * eta) dnu,
/// normalized to T(0) = 1 (evaluated by quadrature — the integrand is
/// smooth). `support` is the uv-cell support of the dual gridding kernel.
std::vector<double> es_taper_line(std::size_t n, double support, double beta);

/// ES shape parameter from the per-cell spelling of Parameters:
/// beta = beta_per_cell * support / 2 (ducc's convention).
double es_beta(double beta_per_cell, std::size_t support);

/// Separable 2-D PSWF taper on an n x n raster: taper(y, x) =
/// pswf(eta(y)) * pswf(eta(x)), eta(x) = 2*(x - n/2)/n.
Array2D<float> make_taper(std::size_t n);

/// Image-plane PSWF correction raster: 1 / taper, clamped where the taper
/// falls below `floor` (the extreme field edge) to keep the correction
/// bounded.
Array2D<float> make_taper_correction(std::size_t n, double floor = 1e-4);

/// The subgrid taper selected by `params` (params.taper, params.kernel_size,
/// params.es_beta_per_cell) on an n = params.subgrid_size raster. For the
/// default TaperKind::kPSWF this is bit-identical to make_taper(n).
Array2D<float> make_taper_for(const Parameters& params);

/// The matching master-grid correction raster (n = params.grid_size):
/// 1 / taper with the family-specific clamp floor (PSWF 1e-4; ES 1e-6 —
/// the ES taper legitimately reaches much smaller values near the field
/// edge, and its correction is only meaningful where |taper| clears the
/// floor).
Array2D<float> make_taper_correction_for(const Parameters& params);

/// make_taper_correction_for(params), built on first use and cached
/// process-wide per (grid_size, taper, es_beta_per_cell, kernel_size). The
/// imaging calls need it every cycle; the cache keeps the few most
/// recently used rasters.
std::shared_ptr<const Array2D<float>> cached_taper_correction(
    const Parameters& params);

}  // namespace idg
