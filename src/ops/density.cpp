#include "ops/density.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fft/fft.h"
#include "tensor/dispatch.h"
#include "util/geometry.h"
#include "util/thread_pool.h"

namespace xplace::ops {

using tensor::Dispatcher;

DensityGrid::DensityGrid(const db::Database& db, int m)
    : m_(m),
      region_lx_(db.region().lx),
      region_ly_(db.region().ly),
      bin_w_(db.region().width() / m),
      bin_h_(db.region().height() / m),
      inv_bin_w_(1.0 / bin_w_),
      inv_bin_h_(1.0 / bin_h_),
      inv_bin_area_(1.0 / (bin_w_ * bin_h_)),
      target_density_(db.target_density()),
      total_movable_area_(db.total_movable_area()) {
  if (!fft::is_pow2(static_cast<std::size_t>(m))) {
    throw std::invalid_argument("density grid dimension must be a power of two");
  }
  const std::size_t n = db.num_cells_total();
  half_w_.resize(n);
  half_h_.resize(n);
  dens_scale_.resize(n);
  const double min_w = bin_w_ * std::numbers::sqrt2;
  const double min_h = bin_h_ * std::numbers::sqrt2;
  for (std::size_t c = 0; c < n; ++c) {
    const bool fixed = db.kind(c) == db::CellKind::kFixed;
    double w = db.width(c), h = db.height(c);
    double scale = 1.0;
    if (!fixed) {
      // ePlace local smoothing: never narrower than √2·bin per dimension.
      const double we = std::max(w, min_w), he = std::max(h, min_h);
      scale = (w * h) / (we * he);
      w = we;
      h = he;
    } else {
      // Fixed cells contribute at most the target density so that bins fully
      // covered by a macro carry zero overflow and zero net force.
      scale = target_density_;
    }
    half_w_[c] = static_cast<float>(w * 0.5);
    half_h_[c] = static_cast<float>(h * 0.5);
    dens_scale_[c] = static_cast<float>(scale);
  }
}

namespace {

/// Fewest cells a pooled scatter splits into partitions; below this the
/// fork and the per-slot map fold cost more than they save.
constexpr std::size_t kMinPooledScatterCells = 512;

/// Per-slot bin maps of the pooled scatter, reused across launches and owned
/// by the calling thread (thread_local, so concurrent callers never share
/// them). Each slot's map is zeroed inside its own task, so the steady-state
/// cost is a parallel fill, not a round of heap allocations.
std::vector<std::vector<double>>& slot_maps() {
  static thread_local std::vector<std::vector<double>> maps;
  return maps;
}

}  // namespace

// The *_span bodies take everything by value, so their loops keep the
// pointers in registers across the out-of-line per-cell calls; a lambda's
// captured references would be reloaded after every call.
template <typename CellAt>
void DensityGrid::scatter_span(const simd::Kernels& k, CellAt cell_at,
                               std::size_t lo, std::size_t hi, const float* x,
                               const float* y, double* out) const {
  if (k.isa == simd::Isa::kScalar) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t c = cell_at(i);
      const double scale = dens_scale_[c] * inv_bin_area_;
      for_each_overlap(c, x, y, [&](std::size_t bin, double overlap) {
        out[bin] += overlap * scale;
      });
    }
    return;
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t c = cell_at(i);
    scatter_one(k, c, x, y, dens_scale_[c] * inv_bin_area_, out);
  }
}

template <typename CellAt>
void DensityGrid::scatter(const char* opname, CellAt cell_at,
                          std::size_t count, const float* x, const float* y,
                          double* map, bool clear, ThreadPool* pool) const {
  Dispatcher::global().run(opname, [&] {
    const simd::Kernels& k = simd::active();
    if (pool == nullptr || pool->size() <= 1 ||
        count < kMinPooledScatterCells) {
      if (clear) std::fill(map, map + num_bins(), 0.0);
      scatter_span(k, cell_at, 0, count, x, y, map);
      return;
    }
    // Static partition: slot w owns cells [w·count/W, (w+1)·count/W) and a
    // private map (grain 1 → exactly one task per slot).
    const std::size_t workers = pool->size();
    std::vector<std::vector<double>>& slots = slot_maps();
    if (slots.size() < workers) slots.resize(workers);
    pool->parallel_for(
        workers,
        [&](std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t w = b; w < e; ++w) {
            slots[w].assign(num_bins(), 0.0);
            scatter_span(k, cell_at, w * count / workers,
                         (w + 1) * count / workers, x, y, slots[w].data());
          }
        },
        /*grain=*/1);
    // Each bin folds its partitions in fixed slot order (base + p0 + p1 + …):
    // deterministic whichever worker handles the bin.
    pool->parallel_for(num_bins(), [&](std::size_t b, std::size_t e,
                                       std::size_t) {
      for (std::size_t bin = b; bin < e; ++bin) {
        double acc = clear ? 0.0 : map[bin];
        for (std::size_t w = 0; w < workers; ++w) acc += slots[w][bin];
        map[bin] = acc;
      }
    });
  });
}

void DensityGrid::accumulate_range(const char* opname, const float* x,
                                   const float* y, std::size_t begin,
                                   std::size_t end, double* map, bool clear,
                                   ThreadPool* pool) const {
  scatter(opname, [begin](std::size_t i) { return begin + i; }, end - begin,
          x, y, map, clear, pool);
}

void DensityGrid::accumulate_cells(const char* opname, const float* x,
                                   const float* y,
                                   const std::vector<std::uint32_t>& cells,
                                   double* map, bool clear,
                                   ThreadPool* pool) const {
  scatter(opname, [&cells](std::size_t i) -> std::size_t { return cells[i]; },
          cells.size(), x, y, map, clear, pool);
}

double DensityGrid::overflow(const double* density_map) const {
  const double over_area = overflow_area(density_map);
  return total_movable_area_ > 0.0 ? over_area / total_movable_area_ : 0.0;
}

double DensityGrid::overflow_area(const double* density_map) const {
  double over_area = 0.0;
  Dispatcher::global().run("overflow_ratio", [&] {
    const double bin_area = bin_w_ * bin_h_;
    for (std::size_t b = 0; b < num_bins(); ++b) {
      over_area += std::max(density_map[b] - target_density_, 0.0) * bin_area;
    }
  });
  return over_area;
}

template <typename CellAt>
void DensityGrid::gather_span(const simd::Kernels& k, CellAt cell_at,
                              std::size_t lo, std::size_t hi, const float* x,
                              const float* y, const double* ex,
                              const double* ey, float coeff, float* grad_x,
                              float* grad_y) const {
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t c = cell_at(i);
    double fx = 0.0, fy = 0.0;
    if (k.isa == simd::Isa::kScalar) {
      for_each_overlap(c, x, y, [&](std::size_t bin, double overlap) {
        fx += overlap * ex[bin];
        fy += overlap * ey[bin];
      });
    } else {
      gather_one(k, c, x, y, ex, ey, &fx, &fy);
    }
    const double q = dens_scale_[c] * inv_bin_area_;
    grad_x[c] += coeff * static_cast<float>(q * fx);
    grad_y[c] += coeff * static_cast<float>(q * fy);
  }
}

template <typename CellAt>
void DensityGrid::gather(const char* opname, CellAt cell_at,
                         std::size_t count, const float* x, const float* y,
                         const double* ex, const double* ey, float coeff,
                         float* grad_x, float* grad_y, ThreadPool* pool) const {
  Dispatcher::global().run(opname, [&] {
    const simd::Kernels& k = simd::active();
    if (pool == nullptr) {
      gather_span(k, cell_at, 0, count, x, y, ex, ey, coeff, grad_x, grad_y);
      return;
    }
    // Each cell owns its gradient slot, so chunks write disjoint cells.
    pool->parallel_for(count, [&](std::size_t b, std::size_t e, std::size_t) {
      gather_span(k, cell_at, b, e, x, y, ex, ey, coeff, grad_x, grad_y);
    });
  });
}

void DensityGrid::gather_field(const char* opname, const float* x,
                               const float* y, std::size_t begin,
                               std::size_t end, const double* ex,
                               const double* ey, float coeff, float* grad_x,
                               float* grad_y, ThreadPool* pool) const {
  gather(opname, [begin](std::size_t i) { return begin + i; }, end - begin, x,
         y, ex, ey, coeff, grad_x, grad_y, pool);
}

void DensityGrid::gather_field_cells(const char* opname, const float* x,
                                     const float* y,
                                     const std::vector<std::uint32_t>& cells,
                                     const double* ex, const double* ey,
                                     float coeff, float* grad_x, float* grad_y,
                                     ThreadPool* pool) const {
  gather(opname, [&cells](std::size_t i) -> std::size_t { return cells[i]; },
         cells.size(), x, y, ex, ey, coeff, grad_x, grad_y, pool);
}

double DensityGrid::total_area(const double* map) const {
  double acc = 0.0;
  const double bin_area = bin_w_ * bin_h_;
  for (std::size_t b = 0; b < num_bins(); ++b) acc += map[b] * bin_area;
  return acc;
}

}  // namespace xplace::ops
