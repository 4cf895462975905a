// Optimized CPU kernels (paper §V-B) and the kernel registry.
//
// The optimized gridder/degridder implement the paper's three CPU
// optimizations:
//  (1) visibility batches are loaded and *transposed* into memory-aligned
//      split real/imaginary arrays for non-strided access;
//  (2) the sine/cosine evaluations are performed over whole batches with a
//      vectorized math library (vmath — our SVML stand-in) or a lookup
//      table;
//  (3) the polarization accumulation is written as a SIMD reduction over
//      channels (gridder, Listing 1) / over pixels (degridder).
//
// Variants registered: "reference" (scalar transcription of the
// pseudocode), "optimized" (vmath polynomial sincos), "optimized-lut"
// (lookup-table sincos), "optimized-libm" (scalar libm sincos — isolates
// the math-library contribution, the paper's §VI-C1 observation that kernel
// performance is dominated by how fast the library evaluates sincos).
#pragma once

#include <string>
#include <vector>

#include "idg/kernels.hpp"

namespace idg::kernels {

/// Batched sincos signature shared with vmath.
using SincosFn = void (*)(std::size_t, const float*, float*, float*);

/// Optimized kernels parameterized by the sincos implementation.
const KernelSet& optimized_kernels();       // vmath polynomial
const KernelSet& optimized_lut_kernels();   // lookup table
const KernelSet& optimized_libm_kernels();  // scalar libm

/// The "algorithmic change" the paper's §VI-C1 alludes to ("we cannot use
/// the full computational capacity of HASWELL and FIJI without algorithmic
/// changes"): for uniformly spaced channels the inner-loop phase is linear
/// in the channel index, phi(t, c) = phi(t, 0) + c * base * dk, so the
/// phasor can be advanced by one complex rotation per channel instead of a
/// fresh sincos — reducing the sincos count by the channel factor and
/// pushing rho far beyond 17. Falls back to the generic optimized kernels
/// for non-uniform channel layouts.
const KernelSet& optimized_phasor_kernels();

/// Lookup by name: "reference", "optimized", "optimized-lut",
/// "optimized-libm", "optimized-phasor". Throws idg::Error for unknown
/// names. Linking this library also installs the registry as the
/// core library's BackendOptions::kernel_set resolver.
const KernelSet& kernel_set(const std::string& name);

/// All registered kernel-set names, in registry order.
std::vector<std::string> kernel_set_names();

}  // namespace idg::kernels
