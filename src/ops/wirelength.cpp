#include "ops/wirelength.h"

#include <vector>

#include "ops/wa_detail.h"
#include "tensor/dispatch.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace::ops {
namespace {
using tensor::Dispatcher;
using namespace detail;

/// Fewest nets the pooled kernel splits into partitions; below this the fork
/// and the per-cell fold cost more than they save.
constexpr std::size_t kMinPooledNets = 256;

/// Per-slot gradient buffers and sums of the pooled kernel, reused across
/// launches and owned by the calling thread (thread_local, so concurrent
/// callers never share them). Each slot's buffers are zeroed inside its own
/// task, so the steady-state cost is a parallel fill, not a round of heap
/// allocations.
struct SlotScratch {
  std::vector<std::vector<float>> gx, gy;
  std::vector<double> wa, hp;
};

SlotScratch& slot_scratch() {
  static thread_local SlotScratch s;
  return s;
}

/// The fused body: nets [lo, hi) through the active backend, accumulating
/// into grad_x/grad_y and the two sums.
void fused_span(const simd::Kernels& k, const NetlistView& v, std::size_t lo,
                std::size_t hi, const float* x, const float* y,
                float inv_gamma, float* grad_x, float* grad_y, double& wa,
                double& hpwl) {
  if (k.isa == simd::Isa::kScalar) {
    for (std::size_t e = lo; e < hi; ++e) {
      if (!v.net_mask[e]) continue;
      fused_net(v, e, x, y, inv_gamma, grad_x, grad_y, wa, hpwl);
    }
    return;
  }
  thread_local WaBatchScratch sc;
  fused_range_simd(k, v, lo, hi, x, y, inv_gamma, grad_x, grad_y, wa, hpwl,
                   sc);
}

}  // namespace

WirelengthSums fused_wl_grad_hpwl(const NetlistView& v, const float* x,
                                  const float* y, float gamma, float* grad_x,
                                  float* grad_y, ThreadPool* pool) {
  WirelengthSums sums;
  // One op name whether or not the kernel fans out, so launch-count
  // contracts hold at every thread count.
  Dispatcher::global().run("fused_wl_grad_hpwl", [&] {
    const float inv_gamma = 1.0f / gamma;
    const simd::Kernels& k = simd::active();
    if (pool == nullptr || pool->size() <= 1 || v.num_nets < kMinPooledNets) {
      fused_span(k, v, 0, v.num_nets, x, y, inv_gamma, grad_x, grad_y, sums.wa,
                 sums.hpwl);
      return;
    }
    const std::size_t workers = pool->size();
    const std::size_t n_cells = v.num_cells;
    SlotScratch& s = slot_scratch();
    if (s.gx.size() < workers) s.gx.resize(workers);
    if (s.gy.size() < workers) s.gy.resize(workers);
    s.wa.assign(workers, 0.0);
    s.hp.assign(workers, 0.0);
    // Static partition: slot w owns nets [w·N/W, (w+1)·N/W) and a private
    // gradient buffer (grain 1 → exactly one task per slot).
    pool->parallel_for(
        workers,
        [&](std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t w = b; w < e; ++w) {
            s.gx[w].assign(n_cells, 0.0f);
            s.gy[w].assign(n_cells, 0.0f);
            // The slot sums accumulate in locals and are stored once:
            // neighbouring s.wa/s.hp slots share a cache line, and updating
            // them once per net would bounce it between cores.
            double wa = 0.0, hp = 0.0;
            fused_span(k, v, w * v.num_nets / workers,
                       (w + 1) * v.num_nets / workers, x, y, inv_gamma,
                       s.gx[w].data(), s.gy[w].data(), wa, hp);
            s.wa[w] = wa;
            s.hp[w] = hp;
          }
        },
        /*grain=*/1);
    // Deterministic parallel reduction: every cell sums its partitions in
    // fixed slot order, regardless of which thread handles the cell.
    pool->parallel_for(n_cells, [&](std::size_t b, std::size_t e,
                                    std::size_t) {
      for (std::size_t c = b; c < e; ++c) {
        float ax = 0.0f, ay = 0.0f;
        for (std::size_t w = 0; w < workers; ++w) {
          ax += s.gx[w][c];
          ay += s.gy[w][c];
        }
        grad_x[c] += ax;
        grad_y[c] += ay;
      }
    });
    for (std::size_t w = 0; w < workers; ++w) {
      sums.wa += s.wa[w];
      sums.hpwl += s.hp[w];
    }
  });
  return sums;
}

double wa_wirelength(const NetlistView& v, const float* x, const float* y,
                     float gamma) {
  double wl = 0.0;
  Dispatcher::global().run("wa_wirelength", [&] {
    const float inv_gamma = 1.0f / gamma;
    const simd::Kernels& k = simd::active();
    if (k.isa == simd::Isa::kScalar) {
      for (std::size_t e = 0; e < v.num_nets; ++e) {
        if (!v.net_mask[e]) continue;
        const NetExtent ext = net_extent(v, e, x, y);
        const WaTerms tx = wa_terms(v, e, x, v.pin_ox.data(), ext.min_x,
                                    ext.max_x, inv_gamma);
        const WaTerms ty = wa_terms(v, e, y, v.pin_oy.data(), ext.min_y,
                                    ext.max_y, inv_gamma);
        wl += static_cast<double>(v.net_weight[e]) * (tx.wl() + ty.wl());
      }
      return;
    }
    thread_local WaBatchScratch sc;
    double hpwl_unused = 0.0;
    wa_range_simd<false, true, false>(k, v, 0, v.num_nets, x, y, inv_gamma,
                                      nullptr, nullptr, wl, hpwl_unused, sc);
  });
  return wl;
}

void wa_gradient(const NetlistView& v, const float* x, const float* y,
                 float gamma, float* grad_x, float* grad_y) {
  Dispatcher::global().run("wa_gradient", [&] {
    const float inv_gamma = 1.0f / gamma;
    const simd::Kernels& k = simd::active();
    if (k.isa == simd::Isa::kScalar) {
      for (std::size_t e = 0; e < v.num_nets; ++e) {
        if (!v.net_mask[e]) continue;
        const float w = v.net_weight[e];
        const NetExtent ext = net_extent(v, e, x, y);
        const WaTerms tx = wa_terms(v, e, x, v.pin_ox.data(), ext.min_x,
                                    ext.max_x, inv_gamma);
        const WaTerms ty = wa_terms(v, e, y, v.pin_oy.data(), ext.min_y,
                                    ext.max_y, inv_gamma);
        wa_scatter(v, e, x, v.pin_ox.data(), ext.min_x, ext.max_x, inv_gamma,
                   tx, w, grad_x);
        wa_scatter(v, e, y, v.pin_oy.data(), ext.min_y, ext.max_y, inv_gamma,
                   ty, w, grad_y);
      }
      return;
    }
    thread_local WaBatchScratch sc;
    double wa_unused = 0.0, hpwl_unused = 0.0;
    wa_range_simd<true, false, false>(k, v, 0, v.num_nets, x, y, inv_gamma,
                                      grad_x, grad_y, wa_unused, hpwl_unused,
                                      sc);
  });
}

double hpwl(const NetlistView& v, const float* x, const float* y) {
  double total = 0.0;
  Dispatcher::global().run("hpwl", [&] {
    const simd::Kernels& k = simd::active();
    if (k.isa == simd::Isa::kScalar) {
      for (std::size_t e = 0; e < v.num_nets; ++e) {
        if (!v.net_mask[e]) continue;
        const NetExtent ext = net_extent(v, e, x, y);
        total += static_cast<double>(v.net_weight[e]) *
                 ((ext.max_x - ext.min_x) + (ext.max_y - ext.min_y));
      }
      return;
    }
    thread_local WaBatchScratch sc;
    double wa_unused = 0.0;
    wa_range_simd<false, false, true>(k, v, 0, v.num_nets, x, y, 0.0f,
                                      nullptr, nullptr, wa_unused, total, sc);
  });
  return total;
}

}  // namespace xplace::ops
