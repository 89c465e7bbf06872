// Pooled-kernel names kept for the benchmark's kernel attribution
// (perfbench/attribution.cpp), which calls them by these names.
//
// Each GP kernel has one entry point that takes an optional ThreadPool and
// decides inside whether to fan out: ops::fused_wl_grad_hpwl,
// DensityGrid::accumulate_range/accumulate_cells and
// DensityGrid::gather_field/gather_field_cells. New code calls those
// directly; these forwarders only pass the pool through.
#pragma once

#include "ops/density.h"
#include "ops/netlist_view.h"
#include "ops/wirelength.h"
#include "util/thread_pool.h"

namespace xplace::ops {

inline WirelengthSums fused_wl_grad_hpwl_mt(const NetlistView& view,
                                            const float* x, const float* y,
                                            float gamma, float* grad_x,
                                            float* grad_y, ThreadPool& pool) {
  return fused_wl_grad_hpwl(view, x, y, gamma, grad_x, grad_y, &pool);
}

inline void accumulate_range_mt(const DensityGrid& grid, const char* opname,
                                const float* x, const float* y,
                                std::size_t begin, std::size_t end,
                                double* map, bool clear, ThreadPool& pool) {
  grid.accumulate_range(opname, x, y, begin, end, map, clear, &pool);
}

inline void gather_field_mt(const DensityGrid& grid, const char* opname,
                            const float* x, const float* y, std::size_t begin,
                            std::size_t end, const double* ex,
                            const double* ey, float coeff, float* grad_x,
                            float* grad_y, ThreadPool& pool) {
  grid.gather_field(opname, x, y, begin, end, ex, ey, coeff, grad_x, grad_y,
                    &pool);
}

}  // namespace xplace::ops
