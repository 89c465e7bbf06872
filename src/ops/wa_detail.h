// Internal per-net helpers of the WA wirelength kernels (ops/wirelength.cpp),
// used by the inline and the partitioned paths alike. Not part of the public
// API.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ops/netlist_view.h"
#include "util/simd.h"

namespace xplace::ops::detail {

struct NetExtent {
  float min_x, max_x, min_y, max_y;
};

inline NetExtent net_extent(const NetlistView& v, std::size_t e, const float* x,
                            const float* y) {
  NetExtent ext{std::numeric_limits<float>::max(),
                std::numeric_limits<float>::lowest(),
                std::numeric_limits<float>::max(),
                std::numeric_limits<float>::lowest()};
  for (std::size_t p = v.net_start[e]; p < v.net_start[e + 1]; ++p) {
    const float px = x[v.pin_cell[p]] + v.pin_ox[p];
    const float py = y[v.pin_cell[p]] + v.pin_oy[p];
    ext.min_x = std::min(ext.min_x, px);
    ext.max_x = std::max(ext.max_x, px);
    ext.min_y = std::min(ext.min_y, py);
    ext.max_y = std::max(ext.max_y, py);
  }
  return ext;
}

/// Stable WA exp-sum accumulators for one net/direction.
struct WaTerms {
  double sum_e_max = 0.0, sum_xe_max = 0.0;  // s_i, x_i·s_i, s = exp((x-max)/γ)
  double sum_e_min = 0.0, sum_xe_min = 0.0;  // u_i, x_i·u_i, u = exp((min-x)/γ)

  double wl() const { return sum_xe_max / sum_e_max - sum_xe_min / sum_e_min; }
};

inline WaTerms wa_terms(const NetlistView& v, std::size_t e, const float* pos,
                        const float* off, float lo, float hi, float inv_gamma) {
  WaTerms t;
  for (std::size_t p = v.net_start[e]; p < v.net_start[e + 1]; ++p) {
    const float px = pos[v.pin_cell[p]] + off[p];
    const double s = std::exp((px - hi) * inv_gamma);
    const double u = std::exp((lo - px) * inv_gamma);
    t.sum_e_max += s;
    t.sum_xe_max += px * s;
    t.sum_e_min += u;
    t.sum_xe_min += px * u;
  }
  return t;
}

/// Scatter the stable-form WA gradient of one net/direction into grad.
inline void wa_scatter(const NetlistView& v, std::size_t e, const float* pos,
                       const float* off, float lo, float hi, float inv_gamma,
                       const WaTerms& t, float weight, float* grad) {
  const double wl_max = t.sum_xe_max / t.sum_e_max;
  const double wl_min = t.sum_xe_min / t.sum_e_min;
  const double inv_smax = 1.0 / t.sum_e_max;
  const double inv_smin = 1.0 / t.sum_e_min;
  for (std::size_t p = v.net_start[e]; p < v.net_start[e + 1]; ++p) {
    const std::uint32_t c = v.pin_cell[p];
    const float px = pos[c] + off[p];
    const double s = std::exp((px - hi) * inv_gamma);
    const double u = std::exp((lo - px) * inv_gamma);
    const double d_max = s * (1.0 + (px - wl_max) * inv_gamma) * inv_smax;
    const double d_min = u * (1.0 - (px - wl_min) * inv_gamma) * inv_smin;
    grad[c] += weight * static_cast<float>(d_max - d_min);
  }
}

/// Full fused treatment of one net: HPWL + WA + gradient scatter.
inline void fused_net(const NetlistView& v, std::size_t e, const float* x,
                      const float* y, float inv_gamma, float* grad_x,
                      float* grad_y, double& wa_acc, double& hpwl_acc) {
  const float w = v.net_weight[e];
  const NetExtent ext = net_extent(v, e, x, y);
  hpwl_acc += static_cast<double>(w) *
              ((ext.max_x - ext.min_x) + (ext.max_y - ext.min_y));
  const WaTerms tx = wa_terms(v, e, x, v.pin_ox.data(), ext.min_x, ext.max_x, inv_gamma);
  const WaTerms ty = wa_terms(v, e, y, v.pin_oy.data(), ext.min_y, ext.max_y, inv_gamma);
  wa_acc += static_cast<double>(w) * (tx.wl() + ty.wl());
  wa_scatter(v, e, x, v.pin_ox.data(), ext.min_x, ext.max_x, inv_gamma, tx, w, grad_x);
  wa_scatter(v, e, y, v.pin_oy.data(), ext.min_y, ext.max_y, inv_gamma, ty, w, grad_y);
}

// ---------------------------------------------------------------------------
// Batched vector path over a contiguous net range. Real netlists average
// ~3 pins per net, so vectorizing *within* one net leaves most lanes masked
// off and the per-net kernel-call overhead eats the gain. This path stages
// every pin of a whole net block through flat buffers instead: one long
// gather per axis, tiny scalar loops for the extents and exp *arguments*,
// then a single vexp sweep over all four argument segments — the exp calls
// are ~¾ of the scalar kernel's cost and here they run 8 pins per step with
// no masking. Sums, gradient arithmetic, and the scatter stay scalar per net
// in pin order, so the accumulation order (and the slot-ordered parallel
// reduction built on it) is unchanged. The grad[cell] += d scatter must stay
// scalar regardless: a net may reference one cell through several pins, and a
// vector scatter would drop the duplicate contributions.
// ---------------------------------------------------------------------------

/// Per-thread scratch for the batched path; sized to the largest block seen.
struct WaBatchScratch {
  std::vector<float> px, py;  // gathered pin positions
  std::vector<float> args;    // exp arguments: [sx | ux | sy | uy] segments
  std::vector<float> exps;    // vexp(args), same layout
  void ensure(std::size_t pins) {
    if (px.size() < pins) {
      px.resize(pins);
      py.resize(pins);
      args.resize(4 * pins);
      exps.resize(4 * pins);
    }
  }
};

/// Batched treatment of nets [e0, e1): kHpwl accumulates exact HPWL, kWl the
/// WA wirelength, kGrad scatters the WA gradient. Equivalent accumulator
/// structure to a per-net loop (per-net additions in net order into the same
/// double accumulators); per-pin exp terms within vexp's documented ≤2-ULP
/// envelope of the scalar path; the HPWL extent math is bitwise-identical.
template <bool kGrad, bool kWl, bool kHpwl>
inline void wa_range_simd(const simd::Kernels& k, const NetlistView& v,
                          std::size_t e0, std::size_t e1, const float* x,
                          const float* y, float inv_gamma, float* grad_x,
                          float* grad_y, double& wa_acc, double& hpwl_acc,
                          WaBatchScratch& sc) {
  constexpr bool kExp = kGrad || kWl;
  constexpr std::size_t kBlockPins = 16384;  // keeps the staging L2-resident
  while (e0 < e1) {
    std::size_t eb = e0;
    const std::size_t p0 = v.net_start[e0];
    while (eb < e1 && v.net_start[eb + 1] - p0 <= kBlockPins) ++eb;
    if (eb == e0) ++eb;  // one oversized net: process it alone
    const std::size_t np = v.net_start[eb] - p0;
    sc.ensure(np);

    k.gather_pin_pos(x, v.pin_cell.data() + p0, v.pin_ox.data() + p0,
                     sc.px.data(), np);
    k.gather_pin_pos(y, v.pin_cell.data() + p0, v.pin_oy.data() + p0,
                     sc.py.data(), np);

    float* const axs = sc.args.data();
    float* const axu = axs + np;
    float* const ays = axu + np;
    float* const ayu = ays + np;
    for (std::size_t e = e0; e < eb; ++e) {
      if (!v.net_mask[e]) continue;  // stale args are harmless: never read
      const std::size_t b = v.net_start[e] - p0;
      const std::size_t n = v.net_start[e + 1] - v.net_start[e];
      float min_x = std::numeric_limits<float>::max();
      float max_x = std::numeric_limits<float>::lowest();
      float min_y = std::numeric_limits<float>::max();
      float max_y = std::numeric_limits<float>::lowest();
      for (std::size_t i = 0; i < n; ++i) {
        min_x = std::min(min_x, sc.px[b + i]);
        max_x = std::max(max_x, sc.px[b + i]);
        min_y = std::min(min_y, sc.py[b + i]);
        max_y = std::max(max_y, sc.py[b + i]);
      }
      if constexpr (kHpwl) {
        hpwl_acc += static_cast<double>(v.net_weight[e]) *
                    ((max_x - min_x) + (max_y - min_y));
      }
      if constexpr (kExp) {
        for (std::size_t i = 0; i < n; ++i) {
          axs[b + i] = (sc.px[b + i] - max_x) * inv_gamma;
          axu[b + i] = (min_x - sc.px[b + i]) * inv_gamma;
          ays[b + i] = (sc.py[b + i] - max_y) * inv_gamma;
          ayu[b + i] = (min_y - sc.py[b + i]) * inv_gamma;
        }
      }
    }

    if constexpr (kExp) {
      k.vexp(sc.args.data(), sc.exps.data(), 4 * np);

      const float* const sx = sc.exps.data();
      const float* const ux = sx + np;
      const float* const sy = ux + np;
      const float* const uy = sy + np;
      for (std::size_t e = e0; e < eb; ++e) {
        if (!v.net_mask[e]) continue;
        const std::size_t b = v.net_start[e] - p0;
        const std::size_t n = v.net_start[e + 1] - v.net_start[e];
        const float w = v.net_weight[e];
        WaTerms tx, ty;
        for (std::size_t i = 0; i < n; ++i) {
          const float pxi = sc.px[b + i], pyi = sc.py[b + i];
          tx.sum_e_max += sx[b + i];
          tx.sum_xe_max += pxi * sx[b + i];
          tx.sum_e_min += ux[b + i];
          tx.sum_xe_min += pxi * ux[b + i];
          ty.sum_e_max += sy[b + i];
          ty.sum_xe_max += pyi * sy[b + i];
          ty.sum_e_min += uy[b + i];
          ty.sum_xe_min += pyi * uy[b + i];
        }
        if constexpr (kWl) {
          wa_acc += static_cast<double>(w) * (tx.wl() + ty.wl());
        }
        if constexpr (kGrad) {
          const double wlx_max = tx.sum_xe_max / tx.sum_e_max;
          const double wlx_min = tx.sum_xe_min / tx.sum_e_min;
          const double wly_max = ty.sum_xe_max / ty.sum_e_max;
          const double wly_min = ty.sum_xe_min / ty.sum_e_min;
          const double ix_max = 1.0 / tx.sum_e_max;
          const double ix_min = 1.0 / tx.sum_e_min;
          const double iy_max = 1.0 / ty.sum_e_max;
          const double iy_min = 1.0 / ty.sum_e_min;
          for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t c = v.pin_cell[p0 + b + i];
            const double pxi = sc.px[b + i], pyi = sc.py[b + i];
            const double dx_max =
                sx[b + i] * (1.0 + (pxi - wlx_max) * inv_gamma) * ix_max;
            const double dx_min =
                ux[b + i] * (1.0 - (pxi - wlx_min) * inv_gamma) * ix_min;
            grad_x[c] += w * static_cast<float>(dx_max - dx_min);
            const double dy_max =
                sy[b + i] * (1.0 + (pyi - wly_max) * inv_gamma) * iy_max;
            const double dy_min =
                uy[b + i] * (1.0 - (pyi - wly_min) * inv_gamma) * iy_min;
            grad_y[c] += w * static_cast<float>(dy_max - dy_min);
          }
        }
      }
    }
    e0 = eb;
  }
}

/// Fused HPWL + WA + gradient over nets [e0, e1) — the Xplace hot path.
inline void fused_range_simd(const simd::Kernels& k, const NetlistView& v,
                             std::size_t e0, std::size_t e1, const float* x,
                             const float* y, float inv_gamma, float* grad_x,
                             float* grad_y, double& wa_acc, double& hpwl_acc,
                             WaBatchScratch& sc) {
  wa_range_simd<true, true, true>(k, v, e0, e1, x, y, inv_gamma, grad_x,
                                  grad_y, wa_acc, hpwl_acc, sc);
}

}  // namespace xplace::ops::detail
