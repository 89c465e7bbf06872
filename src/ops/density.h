// Bin density map operators (Equations (7)–(10) of the paper).
//
// The grid splits the placement region into M×M bins. Cells scatter their
// area into overlapped bins (Equation (8)); following ePlace, cells smaller
// than √2·bin are expanded to √2·bin per dimension with their density scaled
// by the area ratio (local smoothing), and fixed cells contribute with their
// density capped at the target density so fully-blocked bins exert no net
// force and add no overflow.
//
// Xplace's *operator extraction* (Section 3.1.2) computes the movable map D
// and the filler map D_fl separately, reusing D for the overflow metric and
// forming the electrostatic map as D̃ = D + D_fl with one elementwise add.
// The un-extracted baseline accumulates D̃ jointly and then re-accumulates D
// for the overflow, duplicating the movable+fixed scatter. Both paths are
// exposed here so the ablation measures the real cost difference.
//
// Map layout: row-major `map[ix * m + iy]`, dimension 0 = x.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "db/database.h"
#include "util/simd.h"

namespace xplace {
class ThreadPool;
}

namespace xplace::ops {

class DensityGrid {
 public:
  /// Must be constructed after fillers are inserted (footprints are cached
  /// for every cell id). `m` must be a power of two for the Poisson solver.
  DensityGrid(const db::Database& db, int m);

  int m() const { return m_; }
  double bin_w() const { return bin_w_; }
  double bin_h() const { return bin_h_; }
  double bin_area() const { return bin_w_ * bin_h_; }
  std::size_t num_bins() const { return static_cast<std::size_t>(m_) * m_; }

  /// Scatter cells [begin, end) into `map` (adds; optionally clears first).
  /// Positions are center coordinates indexed by cell id. One kernel launch
  /// under `opname`. With a pool of two or more workers and at least 512
  /// cells, the cells are split into one contiguous partition per worker,
  /// each scattered into a private map, and every bin folds its partitions
  /// in slot order: bitwise-deterministic for a fixed worker count.
  void accumulate_range(const char* opname, const float* x, const float* y,
                        std::size_t begin, std::size_t end, double* map,
                        bool clear, ThreadPool* pool = nullptr) const;

  /// Scatter an explicit list of cells (multi-electrostatics: the members of
  /// one fence region's system). One kernel launch, pooled as above.
  void accumulate_cells(const char* opname, const float* x, const float* y,
                        const std::vector<std::uint32_t>& cells, double* map,
                        bool clear, ThreadPool* pool = nullptr) const;

  /// Overflow ratio (Equation (7)) from the physical-cell density map D.
  /// One kernel launch.
  double overflow(const double* density_map) const;

  /// Σ_b max(D_b − D_t, 0)·A_b — the numerator of Eq. (7); used to aggregate
  /// overflow across fence-region systems. One kernel launch.
  double overflow_area(const double* density_map) const;

  /// Gather a field map to per-cell gradients:
  ///   grad[c] += coeff * Σ_b overlap(c,b)/A_b * E_b * A_c_scale
  /// for cells [begin, end). Uses the same (smoothed) footprints as the
  /// scatter, making the gather the exact adjoint. One kernel launch; with a
  /// pool the cells are chunked across its workers, and since each cell owns
  /// its gradient slot the result is bitwise-equal to the inline loop.
  void gather_field(const char* opname, const float* x, const float* y,
                    std::size_t begin, std::size_t end, const double* ex,
                    const double* ey, float coeff, float* grad_x,
                    float* grad_y, ThreadPool* pool = nullptr) const;

  /// Gather for an explicit cell list (fence-region systems; the lists are
  /// disjoint, so pooled writes stay per cell).
  void gather_field_cells(const char* opname, const float* x, const float* y,
                          const std::vector<std::uint32_t>& cells,
                          const double* ex, const double* ey, float coeff,
                          float* grad_x, float* grad_y,
                          ThreadPool* pool = nullptr) const;

  double target_density() const { return target_density_; }

  /// Sum of all density*binArea over a map (diagnostics: should equal the
  /// scaled cell area scattered into it).
  double total_area(const double* map) const;

 private:
  /// Scatter and gather over the cells cell_at(i) for i in [0, count):
  /// `begin + i` for a range, `cells[i]` for a list. They launch the op and
  /// decide whether to fan out; the *_span bodies do the per-cell work for
  /// i in [lo, hi), inline or inside one pooled task.
  template <typename CellAt>
  void scatter(const char* opname, CellAt cell_at, std::size_t count,
               const float* x, const float* y, double* map, bool clear,
               ThreadPool* pool) const;
  template <typename CellAt>
  void scatter_span(const simd::Kernels& k, CellAt cell_at, std::size_t lo,
                    std::size_t hi, const float* x, const float* y,
                    double* out) const;
  template <typename CellAt>
  void gather(const char* opname, CellAt cell_at, std::size_t count,
              const float* x, const float* y, const double* ex,
              const double* ey, float coeff, float* grad_x, float* grad_y,
              ThreadPool* pool) const;
  template <typename CellAt>
  void gather_span(const simd::Kernels& k, CellAt cell_at, std::size_t lo,
                   std::size_t hi, const float* x, const float* y,
                   const double* ex, const double* ey, float coeff,
                   float* grad_x, float* grad_y) const;

  /// Visits every (bin, overlap_area) pair of a cell's (smoothed) footprint.
  template <typename Fn>
  void for_each_overlap(std::size_t cell, const float* x, const float* y,
                        Fn&& fn) const {
    const double lx = x[cell] - half_w_[cell], hx = x[cell] + half_w_[cell];
    const double ly = y[cell] - half_h_[cell], hy = y[cell] + half_h_[cell];
    int bx0 = static_cast<int>(std::floor((lx - region_lx_) * inv_bin_w_));
    int bx1 = static_cast<int>(std::floor((hx - region_lx_) * inv_bin_w_));
    int by0 = static_cast<int>(std::floor((ly - region_ly_) * inv_bin_h_));
    int by1 = static_cast<int>(std::floor((hy - region_ly_) * inv_bin_h_));
    bx0 = std::clamp(bx0, 0, m_ - 1);
    bx1 = std::clamp(bx1, 0, m_ - 1);
    by0 = std::clamp(by0, 0, m_ - 1);
    by1 = std::clamp(by1, 0, m_ - 1);
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double bin_lx = region_lx_ + bx * bin_w_;
      const double ow = std::min(hx, bin_lx + bin_w_) - std::max(lx, bin_lx);
      if (ow <= 0.0) continue;
      for (int by = by0; by <= by1; ++by) {
        const double bin_ly = region_ly_ + by * bin_h_;
        const double oh = std::min(hy, bin_ly + bin_h_) - std::max(ly, bin_ly);
        if (oh <= 0.0) continue;
        fn(static_cast<std::size_t>(bx) * m_ + by, ow * oh);
      }
    }
  }

  /// Vector-lane scatter of one cell's footprint. In the bx·m+by layout each
  /// bx column of the footprint is one contiguous by-run, handed to the
  /// active backend's span kernel (8/4 bins per step). Value-equivalent to
  /// the for_each_overlap loop (clamped overlaps contribute exactly 0).
  void scatter_one(const simd::Kernels& k, std::size_t cell, const float* x,
                   const float* y, double scale, double* map) const {
    const double lx = x[cell] - half_w_[cell], hx = x[cell] + half_w_[cell];
    const double ly = y[cell] - half_h_[cell], hy = y[cell] + half_h_[cell];
    int bx0 = static_cast<int>(std::floor((lx - region_lx_) * inv_bin_w_));
    int bx1 = static_cast<int>(std::floor((hx - region_lx_) * inv_bin_w_));
    int by0 = static_cast<int>(std::floor((ly - region_ly_) * inv_bin_h_));
    int by1 = static_cast<int>(std::floor((hy - region_ly_) * inv_bin_h_));
    bx0 = std::clamp(bx0, 0, m_ - 1);
    bx1 = std::clamp(bx1, 0, m_ - 1);
    by0 = std::clamp(by0, 0, m_ - 1);
    by1 = std::clamp(by1, 0, m_ - 1);
    const std::size_t span = static_cast<std::size_t>(by1 - by0) + 1;
    const double ly0 = region_ly_ + by0 * bin_h_;
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double bin_lx = region_lx_ + bx * bin_w_;
      const double ow = std::min(hx, bin_lx + bin_w_) - std::max(lx, bin_lx);
      if (ow <= 0.0) continue;
      k.span_scatter(map + static_cast<std::size_t>(bx) * m_ + by0, span, ly,
                     hy, ly0, bin_h_, ow * scale);
    }
  }

  /// Vector-lane field gather of one cell's footprint (adjoint of
  /// scatter_one); accumulates Σ overlap·E into *fx/*fy.
  void gather_one(const simd::Kernels& k, std::size_t cell, const float* x,
                  const float* y, const double* ex, const double* ey,
                  double* fx, double* fy) const {
    const double lx = x[cell] - half_w_[cell], hx = x[cell] + half_w_[cell];
    const double ly = y[cell] - half_h_[cell], hy = y[cell] + half_h_[cell];
    int bx0 = static_cast<int>(std::floor((lx - region_lx_) * inv_bin_w_));
    int bx1 = static_cast<int>(std::floor((hx - region_lx_) * inv_bin_w_));
    int by0 = static_cast<int>(std::floor((ly - region_ly_) * inv_bin_h_));
    int by1 = static_cast<int>(std::floor((hy - region_ly_) * inv_bin_h_));
    bx0 = std::clamp(bx0, 0, m_ - 1);
    bx1 = std::clamp(bx1, 0, m_ - 1);
    by0 = std::clamp(by0, 0, m_ - 1);
    by1 = std::clamp(by1, 0, m_ - 1);
    const std::size_t span = static_cast<std::size_t>(by1 - by0) + 1;
    const double ly0 = region_ly_ + by0 * bin_h_;
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double bin_lx = region_lx_ + bx * bin_w_;
      const double ow = std::min(hx, bin_lx + bin_w_) - std::max(lx, bin_lx);
      if (ow <= 0.0) continue;
      const std::size_t row = static_cast<std::size_t>(bx) * m_ + by0;
      k.span_gather(ex + row, ey + row, span, ly, hy, ly0, bin_h_, ow, fx, fy);
    }
  }

  int m_;
  double region_lx_, region_ly_;
  double bin_w_, bin_h_;
  double inv_bin_w_, inv_bin_h_;
  double inv_bin_area_;
  double target_density_;
  double total_movable_area_;

  // Per-cell cached footprints (expanded half-sizes + density scale).
  std::vector<float> half_w_, half_h_, dens_scale_;
};

}  // namespace xplace::ops
