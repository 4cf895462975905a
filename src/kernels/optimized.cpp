#include "kernels/optimized.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "idg/backend.hpp"
#include "kernels/internal.hpp"
#include "kernels/vmath.hpp"

namespace idg::kernels {

namespace {

using internal::padded;
using internal::Scratch;

class OptimizedKernels final : public KernelSet {
 public:
  OptimizedKernels(std::string name, SincosFn sincos)
      : name_(std::move(name)), sincos_(sincos) {}

  std::string name() const override { return name_; }

  void grid(const Parameters& params, const KernelData& data,
            std::span<const WorkItem> items,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<cfloat, 4> subgrids) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(2) == n,
              "subgrid buffer shape mismatch");

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      grid_item(params, data, items[i], visibilities, subgrids, i);
    }
  }

  void degrid(const Parameters& params, const KernelData& data,
              std::span<const WorkItem> items,
              ArrayView<const cfloat, 4> subgrids,
              ArrayView<Visibility, 3> visibilities) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(2) == n,
              "subgrid buffer shape mismatch");

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      degrid_item(params, data, items[i], subgrids, i, visibilities);
    }
  }

 private:
  // --- gridder: SIMD reduction over the (time x channel) batch -------------
  void grid_item(const Parameters& params, const KernelData& data,
                 const WorkItem& item,
                 ArrayView<const Visibility, 3> visibilities,
                 ArrayView<cfloat, 4> subgrids, std::size_t slot_index) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
    const std::size_t ncp = padded(static_cast<std::size_t>(item.nr_channels));
    const std::size_t batch = nt * ncp;
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    // (1) load + transpose into aligned split re/im arrays.
    internal::gather_visibility_batch(params, data, item, visibilities, ncp,
                                      s);

    s.phase.resize(batch);
    s.sin_v.resize(batch);
    s.cos_v.resize(batch);
    s.base.resize(nt);
    float* const phase = s.phase.data();
    float* const sin_v = s.sin_v.data();
    float* const cos_v = s.cos_v.data();
    const float* const kw = s.k.data();

    for (std::size_t idx = 0; idx < n * n; ++idx) {
      const float l = geom.l[idx], m = geom.m[idx], pn = geom.n[idx];
      const float offset = s.offset[idx];
      float pr0 = 0, pi0 = 0, pr1 = 0, pi1 = 0;
      float pr2 = 0, pi2 = 0, pr3 = 0, pi3 = 0;

      // Geometry term per timestep, then the full (time x channel) phase
      // batch so the sincos evaluation amortizes over the whole block
      // (paper §V-B: "precomputed for the entire batch of visibilities").
#pragma omp simd
      for (std::size_t t = 0; t < nt; ++t)
        s.base[t] = s.u[t] * l + s.v[t] * m + s.w[t] * pn;
      for (std::size_t t = 0; t < nt; ++t) {
        const float b = s.base[t];
#pragma omp simd
        for (std::size_t c = 0; c < ncp; ++c)
          phase[t * ncp + c] = b * kw[c] - offset;
      }
      // (2) one batched sincos over all timesteps and channels.
      sincos_(batch, phase, sin_v, cos_v);

      // (3) SIMD reduction over the whole batch; 16 FMAs per lane
      // (Listing 1) — the split re/im arrays share the batch layout.
      const float* vr0 = s.re[0].data();
      const float* vi0 = s.im[0].data();
      const float* vr1 = s.re[1].data();
      const float* vi1 = s.im[1].data();
      const float* vr2 = s.re[2].data();
      const float* vi2 = s.im[2].data();
      const float* vr3 = s.re[3].data();
      const float* vi3 = s.im[3].data();
#pragma omp simd reduction(+ : pr0, pi0, pr1, pi1, pr2, pi2, pr3, pi3)
      for (std::size_t c = 0; c < batch; ++c) {
        pr0 += vr0[c] * cos_v[c] - vi0[c] * sin_v[c];
        pi0 += vr0[c] * sin_v[c] + vi0[c] * cos_v[c];
        pr1 += vr1[c] * cos_v[c] - vi1[c] * sin_v[c];
        pi1 += vr1[c] * sin_v[c] + vi1[c] * cos_v[c];
        pr2 += vr2[c] * cos_v[c] - vi2[c] * sin_v[c];
        pi2 += vr2[c] * sin_v[c] + vi2[c] * cos_v[c];
        pr3 += vr3[c] * cos_v[c] - vi3[c] * sin_v[c];
        pi3 += vr3[c] * sin_v[c] + vi3[c] * cos_v[c];
      }

      const float acc[8] = {pr0, pi0, pr1, pi1, pr2, pi2, pr3, pi3};
      internal::store_gridder_pixel(params, data, item, slot_index, idx / n,
                                    idx % n, acc, subgrids);
    }
  }

  // --- degridder: SIMD reduction over pixels (paper §V-B-b) -----------------
  void degrid_item(const Parameters& params, const KernelData& data,
                   const WorkItem& item, ArrayView<const cfloat, 4> subgrids,
                   std::size_t slot_index,
                   ArrayView<Visibility, 3> visibilities) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2p = padded(n * n);
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    internal::load_degridder_pixels(params, data, item, slot_index, subgrids,
                                    n2p, s);

    s.phase.resize(n2p);
    s.sin_v.resize(n2p);
    s.cos_v.resize(n2p);
    float* const phase = s.phase.data();
    float* const sin_v = s.sin_v.data();
    float* const cos_v = s.cos_v.data();
    const float* const lp = geom.l.data();
    const float* const mp = geom.m.data();
    const float* const np = geom.n.data();
    const float* const op = s.offset.data();

    for (int t = 0; t < item.nr_timesteps; ++t) {
      const UVW& coord =
          data.uvw(static_cast<std::size_t>(item.baseline),
                   static_cast<std::size_t>(item.time_begin + t));
      const float u = coord.u, v = coord.v, w = coord.w;
      for (int c = 0; c < item.nr_channels; ++c) {
        const float k =
            data.wavenumbers[static_cast<std::size_t>(item.channel_begin + c)];
#pragma omp simd
        for (std::size_t j = 0; j < n2p; ++j) {
          phase[j] = op[j] - (u * lp[j] + v * mp[j] + w * np[j]) * k;
        }
        sincos_(n2p, phase, sin_v, cos_v);

        float vr0 = 0, vi0 = 0, vr1 = 0, vi1 = 0;
        float vr2 = 0, vi2 = 0, vr3 = 0, vi3 = 0;
        const float* sr0 = s.re[0].data();
        const float* si0 = s.im[0].data();
        const float* sr1 = s.re[1].data();
        const float* si1 = s.im[1].data();
        const float* sr2 = s.re[2].data();
        const float* si2 = s.im[2].data();
        const float* sr3 = s.re[3].data();
        const float* si3 = s.im[3].data();
#pragma omp simd reduction(+ : vr0, vi0, vr1, vi1, vr2, vi2, vr3, vi3)
        for (std::size_t j = 0; j < n2p; ++j) {
          vr0 += sr0[j] * cos_v[j] - si0[j] * sin_v[j];
          vi0 += sr0[j] * sin_v[j] + si0[j] * cos_v[j];
          vr1 += sr1[j] * cos_v[j] - si1[j] * sin_v[j];
          vi1 += sr1[j] * sin_v[j] + si1[j] * cos_v[j];
          vr2 += sr2[j] * cos_v[j] - si2[j] * sin_v[j];
          vi2 += sr2[j] * sin_v[j] + si2[j] * cos_v[j];
          vr3 += sr3[j] * cos_v[j] - si3[j] * sin_v[j];
          vi3 += sr3[j] * sin_v[j] + si3[j] * cos_v[j];
        }
        Visibility& out =
            visibilities(static_cast<std::size_t>(item.baseline),
                         static_cast<std::size_t>(item.time_begin + t),
                         static_cast<std::size_t>(item.channel_begin + c));
        out = {{vr0, vi0}, {vr1, vi1}, {vr2, vi2}, {vr3, vi3}};
      }
    }
  }

  std::string name_;
  SincosFn sincos_;
};

}  // namespace

const KernelSet& optimized_kernels() {
  static const OptimizedKernels k("optimized", &vmath::sincos_batch);
  return k;
}

const KernelSet& optimized_lut_kernels() {
  static const OptimizedKernels k("optimized-lut", &vmath::sincos_lut);
  return k;
}

const KernelSet& optimized_libm_kernels() {
  static const OptimizedKernels k("optimized-libm", &vmath::sincos_libm);
  return k;
}

const KernelSet& kernel_set(const std::string& name) {
  if (name == "reference") return reference_kernels();
  if (name == "optimized") return optimized_kernels();
  if (name == "optimized-lut") return optimized_lut_kernels();
  if (name == "optimized-libm") return optimized_libm_kernels();
  if (name == "optimized-phasor") return optimized_phasor_kernels();
  std::string known;
  for (const std::string& n : kernel_set_names())
    known += (known.empty() ? "" : " | ") + n;
  throw Error("unknown kernel set: '" + name + "' (expected " + known + ")");
}

std::vector<std::string> kernel_set_names() {
  return {"reference", "optimized", "optimized-lut", "optimized-libm",
          "optimized-phasor"};
}

namespace {
/// Installs the registry into the core library's resolver hook so
/// BackendOptions::kernel_set = "<name>" works in every binary that links
/// idg_kernels. Lives in this TU because every registry user pulls it in.
[[maybe_unused]] const bool kResolverInstalled = [] {
  set_kernel_set_resolver(&kernel_set);
  return true;
}();
}  // namespace

}  // namespace idg::kernels
