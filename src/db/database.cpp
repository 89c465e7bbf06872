#include "db/database.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/logging.h"
#include "util/rng.h"

namespace xplace::db {

std::size_t DesignCore::resident_bytes() const {
  std::size_t bytes = sizeof(DesignCore);
  auto vec = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  bytes += vec(widths) + vec(heights) + vec(kinds);
  bytes += vec(net_weights) + vec(net_pin_start) + vec(pin_cell) + vec(pin_net);
  bytes += vec(pin_offset_x) + vec(pin_offset_y);
  bytes += vec(cell_pin_start) + vec(cell_pin_list);
  bytes += vec(rows) + vec(cell_fence);
  for (const std::string& s : cell_names) bytes += sizeof(std::string) + s.capacity();
  for (const std::string& s : net_names) bytes += sizeof(std::string) + s.capacity();
  for (const FenceRegion& f : fences) bytes += sizeof(FenceRegion) + f.name.capacity();
  // unordered_map: buckets + one node per entry (key string + int + pointers).
  bytes += cell_index.bucket_count() * sizeof(void*);
  for (const auto& kv : cell_index) {
    bytes += sizeof(void*) * 2 + sizeof(std::string) + kv.first.capacity() + sizeof(int);
  }
  return bytes;
}

void Database::require_builder() const {
  if (finalized_) {
    throw std::logic_error("Database already finalized");
  }
}

int Database::add_cell(std::string name, double width, double height,
                       CellKind kind) {
  require_builder();
  if (!std::isfinite(width) || !std::isfinite(height) || width < 0.0 ||
      height < 0.0) {
    throw std::invalid_argument("cell '" + name +
                                "' has negative or non-finite size");
  }
  const int id = static_cast<int>(build_.cell_names.size());
  if (!build_.cell_index.try_emplace(name, id).second) {
    throw std::invalid_argument("duplicate cell name '" + name + "'");
  }
  build_.cell_names.push_back(std::move(name));
  build_.widths.push_back(width);
  build_.heights.push_back(height);
  build_.kinds.push_back(kind);
  x_.push_back(0.0);
  y_.push_back(0.0);
  return id;
}

int Database::add_net(std::string name, double weight) {
  require_builder();
  const int id = static_cast<int>(build_.net_names.size());
  build_.net_names.push_back(std::move(name));
  build_.net_weights.push_back(weight);
  return id;
}

void Database::add_pin(int net, int cell, double ox, double oy) {
  require_builder();
  assert(net >= 0 && net < static_cast<int>(build_.net_names.size()));
  assert(cell >= 0 && cell < static_cast<int>(build_.cell_names.size()));
  raw_pins_.push_back(RawPin{net, cell, ox, oy});
}

void Database::set_initial_position(int cell, double x, double y) {
  x_[cell] = x;
  y_[cell] = y;
}

int Database::add_fence_region(std::string name, const RectD& rect) {
  require_builder();
  if (rect.width() <= 0.0 || rect.height() <= 0.0) {
    throw std::invalid_argument("fence region '" + name + "' is degenerate");
  }
  build_.fences.push_back(FenceRegion{std::move(name), rect});
  return static_cast<int>(build_.fences.size() - 1);
}

void Database::assign_to_fence(int cell, int fence) {
  require_builder();
  if (fence < 0 || fence >= static_cast<int>(build_.fences.size())) {
    throw std::invalid_argument("unknown fence id");
  }
  if (build_.kinds[cell] != CellKind::kMovable) {
    throw std::invalid_argument("only movable cells can be fenced");
  }
  if (build_.cell_fence.empty()) build_.cell_fence.assign(build_.cell_names.size(), -1);
  build_.cell_fence.resize(build_.cell_names.size(), -1);
  build_.cell_fence[cell] = fence;
}

void Database::finalize() {
  require_builder();
  const std::size_t n = build_.cell_names.size();

  // Stable permutation: movable cells first, fixed cells after.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return (build_.kinds[a] == CellKind::kMovable) > (build_.kinds[b] == CellKind::kMovable);
  });
  std::vector<std::uint32_t> old_to_new(n);
  for (std::size_t i = 0; i < n; ++i) old_to_new[order[i]] = static_cast<std::uint32_t>(i);

  auto permute = [&](auto& v) {
    using V = std::decay_t<decltype(v)>;
    V out(v.size());
    for (std::size_t i = 0; i < n; ++i) out[i] = std::move(v[order[i]]);
    v = std::move(out);
  };
  permute(build_.cell_names);
  permute(build_.widths);
  permute(build_.heights);
  permute(build_.kinds);
  permute(x_);
  permute(y_);
  if (!build_.cell_fence.empty()) {
    build_.cell_fence.resize(n, -1);
    permute(build_.cell_fence);
  }
  for (auto& entry : build_.cell_index) {
    entry.second = static_cast<int>(old_to_new[entry.second]);
  }

  build_.num_movable = static_cast<std::size_t>(
      std::count(build_.kinds.begin(), build_.kinds.end(), CellKind::kMovable));
  build_.num_physical = n;

  // Build net CSR. Pins keep their within-net insertion order.
  const std::size_t num_nets = build_.net_names.size();
  build_.net_pin_start.assign(num_nets + 1, 0);
  for (const RawPin& p : raw_pins_) ++build_.net_pin_start[p.net + 1];
  for (std::size_t e = 0; e < num_nets; ++e) {
    build_.net_pin_start[e + 1] += build_.net_pin_start[e];
  }
  const std::size_t num_pins = raw_pins_.size();
  build_.pin_cell.resize(num_pins);
  build_.pin_net.resize(num_pins);
  build_.pin_offset_x.resize(num_pins);
  build_.pin_offset_y.resize(num_pins);
  {
    std::vector<std::uint32_t> cursor(build_.net_pin_start.begin(),
                                      build_.net_pin_start.end() - 1);
    for (const RawPin& p : raw_pins_) {
      const std::uint32_t slot = cursor[p.net]++;
      build_.pin_cell[slot] = old_to_new[p.cell];
      build_.pin_net[slot] = static_cast<std::uint32_t>(p.net);
      build_.pin_offset_x[slot] = p.ox;
      build_.pin_offset_y[slot] = p.oy;
    }
  }
  raw_pins_.clear();
  raw_pins_.shrink_to_fit();

  // Build cell→pin CSR.
  build_.cell_pin_start.assign(n + 1, 0);
  for (std::uint32_t c : build_.pin_cell) ++build_.cell_pin_start[c + 1];
  for (std::size_t c = 0; c < n; ++c) {
    build_.cell_pin_start[c + 1] += build_.cell_pin_start[c];
  }
  build_.cell_pin_list.resize(num_pins);
  {
    std::vector<std::uint32_t> cursor(build_.cell_pin_start.begin(),
                                      build_.cell_pin_start.end() - 1);
    for (std::uint32_t p = 0; p < num_pins; ++p) {
      build_.cell_pin_list[cursor[build_.pin_cell[p]]++] = p;
    }
  }

  // Default region: bounding box of rows if provided and region unset.
  if (build_.region.width() <= 0.0 && !build_.rows.empty()) {
    RectD r{build_.rows[0].lx, build_.rows[0].ly, build_.rows[0].hx(), build_.rows[0].hy()};
    for (const Row& row : build_.rows) {
      r = r.united(RectD{row.lx, row.ly, row.hx(), row.hy()});
    }
    build_.region = r;
  }

  build_.total_movable_area = 0.0;
  for (std::size_t c = 0; c < build_.num_movable; ++c) {
    build_.total_movable_area += build_.widths[c] * build_.heights[c];
  }
  build_.fixed_area_in_region = 0.0;
  for (std::size_t c = build_.num_movable; c < n; ++c) {
    const double hw = build_.widths[c] * 0.5, hh = build_.heights[c] * 0.5;
    const RectD r{x_[c] - hw, y_[c] - hh, x_[c] + hw, y_[c] + hh};
    build_.fixed_area_in_region += r.overlap_area(build_.region);
  }

  // Freeze: parse-time data becomes the shared immutable core; per-run state
  // (positions, overlays, density) seeds from it.
  target_density_run_ = build_.target_density;
  total_movable_area_run_ = build_.total_movable_area;
  const std::string name = build_.design_name;
  const std::size_t movable = build_.num_movable;
  core_ = std::make_shared<const DesignCore>(std::move(build_));
  build_ = DesignCore{};
  finalized_ = true;
  XP_DEBUG("finalized design '%s': %zu movable, %zu fixed, %zu nets, %zu pins",
           name.c_str(), movable, num_fixed(), num_nets, num_pins);
}

void Database::scale_cell_width(std::size_t cell, double factor) {
  if (!finalized_) throw std::logic_error("scale_cell_width before finalize");
  if (cell >= C().num_movable) {
    throw std::invalid_argument("scale_cell_width: not a movable cell");
  }
  if (!filler_w_.empty()) {
    throw std::logic_error("scale_cell_width after filler insertion");
  }
  if (factor <= 0.0) throw std::invalid_argument("non-positive inflation factor");
  if (widths_cow_.empty()) widths_cow_ = C().widths;  // detach from shared core
  const double old_area = widths_cow_[cell] * C().heights[cell];
  widths_cow_[cell] *= factor;
  total_movable_area_run_ += widths_cow_[cell] * C().heights[cell] - old_area;
}

void Database::insert_fillers(std::uint64_t seed) {
  if (!finalized_) throw std::logic_error("insert_fillers before finalize");
  if (!filler_w_.empty()) {
    throw std::logic_error("fillers already inserted");
  }
  if (num_movable() == 0) return;

  // Filler size: mean movable width/height (ePlace uses the middle of the
  // sorted size distribution; the mean is equivalent for our size mixes).
  double mean_w = 0.0, mean_h = 0.0;
  for (std::size_t c = 0; c < num_movable(); ++c) {
    mean_w += width(c);
    mean_h += height(c);
  }
  mean_w /= static_cast<double>(num_movable());
  mean_h /= static_cast<double>(num_movable());
  const double one_area = std::max(1e-12, mean_w * mean_h);

  Rng rng(seed);
  std::size_t total_count = 0;
  // Per electrostatic region: allowed area, fixed blockage inside it, member
  // movable area; filler budget = D_t·free − movable (DREAMPlace 3.0 style).
  const std::vector<FenceRegion>& fence_list = C().fences;
  const RectD region_rect = C().region;
  const int num_regions = static_cast<int>(fence_list.size());
  for (int k = -1; k < num_regions; ++k) {
    double allowed_area;
    RectD bounds = region_rect;
    if (k >= 0) {
      bounds = fence_list[k].rect.intersection(region_rect);
      allowed_area = std::max(0.0, bounds.width()) * std::max(0.0, bounds.height());
    } else {
      allowed_area = region_rect.area();
      for (const FenceRegion& f : fence_list) {
        allowed_area -= f.rect.intersection(region_rect).area();
      }
    }
    double fixed_area = 0.0;
    for (std::size_t c = num_movable(); c < num_physical(); ++c) {
      const RectD r = cell_rect(c).intersection(region_rect);
      if (r.width() <= 0 || r.height() <= 0) continue;
      if (k >= 0) {
        fixed_area += r.overlap_area(fence_list[k].rect);
      } else {
        double inside_fences = 0.0;
        for (const FenceRegion& f : fence_list) inside_fences += r.overlap_area(f.rect);
        fixed_area += r.area() - inside_fences;
      }
    }
    double movable_area = 0.0;
    for (std::size_t c = 0; c < num_movable(); ++c) {
      if (cell_fence(c) == k) movable_area += area(c);
    }
    const double filler_area =
        std::max(0.0, target_density_run_ * (allowed_area - fixed_area) - movable_area);
    const std::size_t count = static_cast<std::size_t>(filler_area / one_area);
    if (count == 0) continue;

    const double lo_x = bounds.lx + mean_w * 0.5, hi_x = bounds.hx - mean_w * 0.5;
    const double lo_y = bounds.ly + mean_h * 0.5, hi_y = bounds.hy - mean_h * 0.5;
    for (std::size_t i = 0; i < count; ++i) {
      filler_names_.push_back("__filler_" + std::to_string(total_count + i));
      filler_w_.push_back(mean_w);
      filler_h_.push_back(mean_h);
      double fx, fy;
      if (k < 0 && !fence_list.empty()) {
        // Default-region fillers: rejection-sample outside the fences.
        fx = rng.uniform(lo_x, std::max(lo_x + 1e-9, hi_x));
        fy = rng.uniform(lo_y, std::max(lo_y + 1e-9, hi_y));
        for (int tries = 0; tries < 16; ++tries) {
          bool inside = false;
          for (const FenceRegion& f : fence_list) {
            if (f.rect.contains(fx, fy)) {
              inside = true;
              break;
            }
          }
          if (!inside) break;
          fx = rng.uniform(lo_x, std::max(lo_x + 1e-9, hi_x));
          fy = rng.uniform(lo_y, std::max(lo_y + 1e-9, hi_y));
        }
      } else {
        fx = rng.uniform(lo_x, std::max(lo_x + 1e-9, hi_x));
        fy = rng.uniform(lo_y, std::max(lo_y + 1e-9, hi_y));
      }
      x_.push_back(fx);
      y_.push_back(fy);
      filler_fence_.push_back(k);
    }
    total_count += count;
  }
  XP_DEBUG("inserted %zu fillers of %.3g x %.3g", total_count, mean_w, mean_h);
}

int Database::cell_id(const std::string& name) const {
  const auto& index = C().cell_index;
  auto it = index.find(name);
  return it == index.end() ? -1 : it->second;
}

double Database::net_hpwl(std::size_t net) const {
  const DesignCore& k = C();
  const std::size_t begin = k.net_pin_start[net], end = k.net_pin_start[net + 1];
  if (end - begin < 2) return 0.0;
  double min_x = 1e300, max_x = -1e300, min_y = 1e300, max_y = -1e300;
  for (std::size_t p = begin; p < end; ++p) {
    const std::uint32_t c = k.pin_cell[p];
    const double px = x_[c] + k.pin_offset_x[p];
    const double py = y_[c] + k.pin_offset_y[p];
    min_x = std::min(min_x, px);
    max_x = std::max(max_x, px);
    min_y = std::min(min_y, py);
    max_y = std::max(max_y, py);
  }
  return (max_x - min_x) + (max_y - min_y);
}

double Database::hpwl() const {
  double total = 0.0;
  const std::vector<double>& weights = C().net_weights;
  for (std::size_t e = 0; e < weights.size(); ++e) {
    total += weights[e] * net_hpwl(e);
  }
  return total;
}

}  // namespace xplace::db
