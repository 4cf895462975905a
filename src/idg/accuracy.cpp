#include "idg/accuracy.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace idg {
namespace accuracy {

namespace {
// Calibration: dirty-image l2 vs a direct double DFT (central half field,
// benchmark dataset, grids 128/256/512) measured per configuration:
//   float (any sincos path) + PSWF:            1.28e-3 .. 1.64e-3
//   double reference + PSWF (k=8):             2.5e-4  .. 2.9e-4
//   double reference + ES (k=12, sg=32):       1.2e-6  .. 3.1e-6
// The tier bounds below keep >= ~3x margin against the worst measurement.
// The preview tier prefers "optimized" (vmath sincos), which sits at the
// same float phase-error floor as every single-precision kernel set. The
// optimized kernels always accumulate in float, so the double-accumulation
// tiers keep the reference kernels, which honour Accumulation::kDouble.
constexpr TierConfig kTiers[] = {
    {"preview", Accumulation::kSingle, TaperKind::kPSWF, 8, 0, "optimized"},
    {"standard", Accumulation::kDouble, TaperKind::kPSWF, 8, 0, "reference"},
    {"science", Accumulation::kDouble, TaperKind::kES, 12, 32, "reference"},
};
}  // namespace

const TierConfig& tier_for(double epsilon) {
  if (!(epsilon >= kEpsilonFloor) || epsilon >= kEpsilonCeiling) {
    std::ostringstream oss;
    oss << "invalid idg::Parameters: epsilon (" << epsilon
        << ") must be in [" << kEpsilonFloor << ", " << kEpsilonCeiling
        << ")";
    throw Error(oss.str());
  }
  if (epsilon >= kSinglePrecisionFloor) return kTiers[0];
  if (epsilon >= kPswfFloor) return kTiers[1];
  return kTiers[2];
}

const char* preferred_kernel_set(const Parameters& params) {
  if (!params.epsilon.has_value()) return "reference";
  return tier_for(*params.epsilon).kernel_set;
}

}  // namespace accuracy

Parameters& Parameters::auto_configure(double requested_epsilon) {
  const accuracy::TierConfig& tier = accuracy::tier_for(requested_epsilon);
  epsilon = requested_epsilon;
  accumulation = tier.accumulation;
  taper = tier.taper;
  es_beta_per_cell = 2.3;
  kernel_size = tier.kernel_size;
  // Pad the subgrid up to the tier's minimum (never shrink: the caller's
  // explicit geometry stays an upper bound on accuracy, not a downgrade).
  subgrid_size = std::max(subgrid_size, tier.min_subgrid_size);
  validate();
  return *this;
}

}  // namespace idg
