// The gradient engine (Figure 1): evaluates the objective gradient
// ∇(Σ_e w_e WL_e + λ·D) at the current positions under one of the execution
// strategies selected by the operator-level switches in PlacerConfig.
//
// Execution strategies per iteration:
//
//   op_reduction=1, op_combination=1 (Xplace):
//     fused_wl_grad_hpwl (1 launch) + density pipeline + in-place combines.
//   op_reduction=1, op_combination=0:
//     wa_wirelength + wa_gradient + hpwl (3 launches, redundant min/max).
//   op_reduction=0:
//     elementary-op forward (~28 launches) + autograd tape backward (~12
//     nodes) + separate HPWL op + potential-energy synthesis (the loss the
//     autograd formulation differentiates) + out-of-place combines.
//
//   op_extraction=1: D (physical) and D_fl (filler) accumulated separately;
//     D̃ = D + D_fl by one elementwise add; OVFL from D.
//   op_extraction=0: D̃ accumulated jointly over all cells AND D re-accumulated
//     for the overflow — the movable scatter runs twice.
//
//   op_skipping=1: when r = λ|∇D|/|∇WL| < 0.01 and iter < 100, the density
//     pipeline (scatter + transforms + gather) executes only every 20th
//     iteration; the cached density gradient is reused in between.
//
// An optional FieldGuidance hook lets the NN extension blend a predicted
// field into the numerical one before the gather (Section 3.3, Eq. (14)).
#pragma once

#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "db/database.h"
#include "ops/density.h"
#include "ops/electrostatics.h"
#include "ops/netlist_view.h"
#include "ops/wirelength_tape.h"
#include "tensor/tape.h"
#include "util/execution.h"
#include "util/timer.h"

namespace xplace::core {

/// Neural field guidance interface (implemented in src/nn). `blend` may
/// modify ex/ey in place given the density map, the stage indicator ω, and
/// the gradient ratio r = λ|∇D|/|∇WL| of the previous iteration (the paper's
/// "early stage" marker from Section 3.1.4).
class FieldGuidance {
 public:
  virtual ~FieldGuidance() = default;
  virtual void blend(const double* rho, int m, double bin_w, double bin_h,
                     double omega, double r, std::vector<double>& ex,
                     std::vector<double>& ey) = 0;
};

struct GradientResult {
  double wa_wl = 0.0;
  double hpwl = 0.0;
  double overflow = 0.0;
  double wl_grad_norm = 0.0;      ///< Σ|∇WL| over movable cells
  double density_grad_norm = 0.0; ///< Σ|∇D| over movable cells (unweighted by λ)
  double r_ratio = 0.0;           ///< λ|∇D| / |∇WL|
  bool density_skipped = false;
};

class GradientEngine {
 public:
  /// `exec` supplies the pool the heavy kernels may fan out onto (null, or a
  /// context without a pool → the historical single-threaded path, bit for
  /// bit). Not owned; must outlive the engine.
  GradientEngine(const db::Database& db, const PlacerConfig& cfg,
                 const ExecutionContext* exec = nullptr);

  /// Evaluate gradient at (x, y) into grad_x/grad_y (sized num_cells_total;
  /// overwritten). `omega` is the stage indicator used by the NN guidance.
  GradientResult compute(const float* x, const float* y, float gamma,
                         float lambda, int iter, double omega, float* grad_x,
                         float* grad_y);

  void set_field_guidance(FieldGuidance* guidance) { guidance_ = guidance; }

  const ops::NetlistView& view() const { return view_; }
  const ops::DensityGrid& grid() const { return grid_; }

  /// Movable-cell density map D of the most recent compute() (for debugging
  /// and the NN training-data collector).
  const std::vector<double>& density_map() const { return dmap_; }

  /// Operator-skipping cache state (cached density gradient + norms). It is
  /// part of the trajectory: a resumed run must reuse exactly the cached
  /// gradient the uninterrupted run would have, or the iterates drift.
  void save_state(StateBlob& out) const;
  void restore_state(const StateBlob& in);

  /// Accumulated wall-clock per phase (gp.phase.wirelength / density / fft /
  /// field) — the timers the `--threads` speedup is measured against.
  const TimerRegistry& phase_timers() const { return phase_timers_; }

 private:
  void wirelength_pass(const float* x, const float* y, float gamma,
                       GradientResult& res, float* grad_x, float* grad_y);
  void density_pass(const float* x, const float* y, GradientResult& res,
                    double omega);
  /// Multi-electrostatics (fence regions): one system per region, each with
  /// a static blockage map of the complement area + fixed cells, solved and
  /// gathered per member cell (DREAMPlace-3.0 style).
  void density_pass_fenced(const float* x, const float* y,
                           GradientResult& res, double omega);
  void build_fence_systems();

  /// The pool the kernels may fan out onto, or null for the serial backend.
  ThreadPool* pool_or_null() const {
    return exec_ != nullptr ? exec_->pool() : nullptr;
  }

  const db::Database& db_;
  PlacerConfig cfg_;
  const ExecutionContext* exec_ = nullptr;
  mutable TimerRegistry phase_timers_;
  ops::NetlistView view_;
  ops::DensityGrid grid_;
  ops::PoissonSolver solver_;
  std::unique_ptr<ops::TapeWirelength> tape_wl_;
  tensor::Tape tape_;
  FieldGuidance* guidance_ = nullptr;

  std::size_t n_total_;     ///< cells incl. fillers
  std::size_t n_physical_;
  std::size_t n_movable_;

  std::vector<double> dmap_;       ///< movable+fixed density D
  std::vector<double> dmap_fl_;    ///< filler density D_fl
  std::vector<double> dmap_total_; ///< D̃

  // Fence-region systems (empty unless the design has fences).
  struct FenceSystem {
    std::vector<std::uint32_t> movable;   ///< member movable cells
    std::vector<std::uint32_t> fillers;   ///< member filler cells
    std::vector<double> blockage;         ///< static map: complement + fixed
    std::vector<double> map;              ///< per-iteration density map
  };
  std::vector<FenceSystem> systems_;
  std::vector<float> dgrad_x_, dgrad_y_;  ///< cached unweighted density grad
  std::vector<float> wl_grad_x_, wl_grad_y_;
  std::vector<float> pin_scratch_;  ///< baseline extra-op scratch
  int last_density_iter_ = -1000;
  // Caches for skipped iterations (Section 3.1.4 reuses the last full result).
  double wl_grad_norm_cache_ = 0.0;
  double density_grad_norm_cache_ = 0.0;
  double overflow_cache_ = 1.0;
  double lambda_cache_ = 0.0;
};

}  // namespace xplace::core
