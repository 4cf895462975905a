// The epsilon -> configuration tier table of the accuracy contract
// (DESIGN.md §13).
//
// One requested dirty-image l2 error (Parameters::epsilon) selects a
// calibrated configuration tier: taper family, uv-cell support
// (kernel_size), subgrid padding, accumulation precision and the sincos
// path of the preferred kernel set. The tiers were calibrated against a
// direct double-precision DFT on grids of 128-512 (the achieved errors
// below); every tier boundary keeps a >= ~3x margin, and the proof harness
// (tests/test_accuracy.cpp, bench_epsilon_sweep) re-measures the contract
// continuously.
//
//   tier      epsilon range    configuration                     achieved l2
//   preview   [5e-3, 1)        single + LUT sincos + PSWF, k=8     ~1.6e-3
//   standard  [1e-3, 5e-3)     double reference + PSWF,    k=8     ~2.9e-4
//   science   [1e-5, 1e-3)     double reference + ES, k=12, sg>=32 ~3.1e-6
#pragma once

#include <cstddef>

#include "idg/parameters.hpp"

namespace idg::accuracy {

/// One row of the tier table: what auto_configure(epsilon) applies.
struct TierConfig {
  const char* name;            ///< "preview", "standard", "science"
  Accumulation accumulation;
  TaperKind taper;
  std::size_t kernel_size;     ///< uv-cell support reserved per subgrid
  std::size_t min_subgrid_size;  ///< subgrid_size is padded up to this
  /// Preferred kernel set (idg::kernels registry name). Advisory: the
  /// contract holds for any kernel set honouring `accumulation` (the
  /// reference set does); the preview tier prefers "optimized", which
  /// sits at the float phase-error floor; the double-accumulation tiers
  /// prefer "reference".
  const char* kernel_set;
};

/// The tier serving `epsilon`. Throws idg::Error when epsilon is outside
/// [kEpsilonFloor, kEpsilonCeiling) — the same named error
/// Parameters::validated() produces.
const TierConfig& tier_for(double epsilon);

/// The kernel-set registry name the parameters' accuracy settings prefer:
/// the tier's choice when epsilon is set, "reference" otherwise. Callers
/// that link the optimized kernel library resolve it via
/// kernels::kernel_set(name); idg_core itself only provides the reference
/// set (which honours Parameters::accumulation).
const char* preferred_kernel_set(const Parameters& params);

}  // namespace idg::accuracy
