#include "ops/electrostatics.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/plan.h"
#include "telemetry/trace.h"
#include "tensor/dispatch.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace::ops {

using tensor::Dispatcher;

PoissonSolver::PoissonSolver(int m, double bin_w, double bin_h) : m_(m) {
  wu_.resize(m);
  wv_.resize(m);
  for (int u = 0; u < m; ++u) {
    wu_[u] = std::numbers::pi * u / (m * bin_w);
    wv_[u] = std::numbers::pi * u / (m * bin_h);
  }
  const std::size_t n = static_cast<std::size_t>(m) * m;
  coeff_.resize(n);
  ex_.resize(n);
  ey_.resize(n);
  psi_.resize(n);
}

void PoissonSolver::solve(const double* rho, bool want_potential) {
  XP_TRACE_SCOPE("gp.phase.fft");
  const std::size_t m = static_cast<std::size_t>(m_);
  auto& disp = Dispatcher::global();
  ThreadPool* pool = (pool_ != nullptr && pool_->size() > 1) ? pool_ : nullptr;
  using fft::Kind1D;
  using fft::PassOp;

  // Forward cosine transform of the density, through the fused plan engine
  // (the row pass reads ρ straight into coeff_), then the spectral scaling
  //   ψ̂ = a/(w²); Ex̂ = ψ̂·wu ; Eŷ = ψ̂·wv
  // as one row-major pass over coeff_. The constant mode is zeroed, which is
  // exactly the ∬ρ = 0 mean removal; ψ̂ is stored only when the potential
  // is synthesized. Rows write disjoint slices, so the pooled pass is
  // bitwise-equal to the serial one for any worker count (DESIGN.md §15).
  disp.run("es.dct2", [&] {
    const PassOp row{rho, coeff_.data(), Kind1D::kDct};
    fft::run_rows(&row, 1, m, m, pool, scratch_);
    const PassOp col{coeff_.data(), coeff_.data(), Kind1D::kDct};
    fft::run_cols(&col, 1, m, m, pool, scratch_);
    double* psi = want_potential ? psi_.data() : nullptr;
    const auto scale_rows = [&](std::size_t u0, std::size_t u1) {
      for (std::size_t u = u0; u < u1; ++u) {
        std::size_t v = 0;
        if (u == 0) {
          ex_[0] = ey_[0] = 0.0;
          if (psi != nullptr) psi[0] = 0.0;
          v = 1;
        }
        for (; v < m; ++v) {
          const std::size_t i = u * m + v;
          const double denom = wu_[u] * wu_[u] + wv_[v] * wv_[v];
          const double ps = coeff_[i] / denom;
          if (psi != nullptr) psi[i] = ps;
          ex_[i] = ps * wu_[u];
          ey_[i] = ps * wv_[v];
        }
      }
    };
    if (pool != nullptr) {
      // About four row blocks per worker, one dispatch.
      pool->parallel_for(
          m, [&](std::size_t b, std::size_t e, std::size_t) { scale_rows(b, e); },
          std::max<std::size_t>(1, m / (4 * pool->size())));
    } else {
      scale_rows(0, m);
    }
  });

  // Field syntheses (sine along the differentiated axis), batched: every row
  // of every needed grid fans out in one dispatch, then every column pair.
  //   E_x = idxst_idct(Ex̂)  →  idct rows, idxst columns
  //   E_y = idct_idxst(Eŷ)  →  idxst rows, idct columns
  //   ψ   = idct2(ψ̂)        →  idct rows, idct columns (baseline path only)
  const std::size_t grids = want_potential ? 3 : 2;
  disp.run("es.field_rows", [&] {
    const PassOp ops[3] = {
        {ex_.data(), ex_.data(), Kind1D::kIdct},
        {ey_.data(), ey_.data(), Kind1D::kIdxst},
        {psi_.data(), psi_.data(), Kind1D::kIdct},
    };
    fft::run_rows(ops, grids, m, m, pool, scratch_);
  });
  disp.run("es.field_cols", [&] {
    const PassOp ops[3] = {
        {ex_.data(), ex_.data(), Kind1D::kIdxst},
        {ey_.data(), ey_.data(), Kind1D::kIdct},
        {psi_.data(), psi_.data(), Kind1D::kIdct},
    };
    fft::run_cols(ops, grids, m, m, pool, scratch_);
  });
}

double PoissonSolver::energy(const double* rho) const {
  const std::size_t n = static_cast<std::size_t>(m_) * m_;
  return 0.5 * simd::active().ddot(rho, psi_.data(), n);
}

}  // namespace xplace::ops
