// Spectral solver for the ePlace electrostatic system (Equation (5)):
//
//   ∇·∇ψ = −ρ,   n̂·∇ψ = 0 on ∂R,   ∬ρ = ∬ψ = 0.
//
// With Neumann boundary conditions the density expands in the cosine basis
// cos(w_u x)cos(w_v y), w_u = πu/(M·h_x); the Poisson equation diagonalizes,
// and the field components come back through mixed sine/cosine syntheses:
//
//   a     = dct2(ρ̄)                     (ρ̄ = ρ with mean removed)
//   ψ̂_uv  = a_uv / (w_u² + w_v²)
//   ψ     = idct2(ψ̂)
//   E_x   = idxst_idct(ψ̂ ⊙ w_u)         (E = −∇ψ)
//   E_y   = idct_idxst(ψ̂ ⊙ w_v)
//
// Xplace's operator-reduction path (Section 3.1.3) skips ψ entirely — only
// three transforms per iteration. The baseline path additionally synthesizes
// ψ to evaluate the potential energy the autograd formulation differentiates.
#pragma once

#include <cstddef>
#include <vector>

#include "fft/plan.h"

namespace xplace {
class ThreadPool;
}

namespace xplace::ops {

class PoissonSolver {
 public:
  PoissonSolver(int m, double bin_w, double bin_h);

  /// Solve for the field (and optionally the potential) of an m×m density
  /// map. Results are valid until the next solve() call.
  void solve(const double* rho, bool want_potential);

  /// Optional worker pool for the 2-D transforms and the spectral scaling.
  /// Null (the default) keeps the historical serial path; the pooled result
  /// is bitwise-identical for any worker count (disjoint writes, no
  /// reductions).
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  const std::vector<double>& ex() const { return ex_; }
  const std::vector<double>& ey() const { return ey_; }
  /// The potential ψ. Valid only after a solve() with want_potential=true:
  /// a field-only solve neither stores ψ̂ nor synthesizes ψ, so this then
  /// still holds the last potential solve's result (or zeros).
  const std::vector<double>& psi() const { return psi_; }

  /// Mutable views of the synthesized field grids. The gradient engine's
  /// density passes scale the field in place by λ·q_i factors before
  /// scattering it back to cells; exposing that intent here beats the
  /// const_cast it previously used.
  std::vector<double>& mutable_ex() { return ex_; }
  std::vector<double>& mutable_ey() { return ey_; }

  /// Potential energy 0.5·Σ_b ρ_b ψ_b (requires want_potential=true on the
  /// preceding solve).
  double energy(const double* rho) const;

  int m() const { return m_; }

 private:
  int m_;
  ThreadPool* pool_ = nullptr;       // not owned; null = serial
  std::vector<double> wu_, wv_;      // angular frequencies per index
  std::vector<double> coeff_;        // scratch: DCT coefficients
  std::vector<double> ex_, ey_, psi_;
  fft::PlanScratch scratch_;         // per-worker FFT scratch, reused forever
};

}  // namespace xplace::ops
