// Tests for the extension modules: pooled GP kernels, visualization
// writers, .wts net weights, and congestion-driven inflation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "io/bookshelf.h"
#include "io/generator.h"
#include "io/plot.h"
#include "ops/density.h"
#include "ops/wirelength.h"
#include "route/congestion.h"
#include "route/inflation.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace {
namespace {

db::Database make_db(std::size_t cells = 1500, std::uint64_t seed = 71) {
  io::GeneratorSpec spec;
  spec.name = "ext_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + 60;
  spec.seed = seed;
  db::Database db = io::generate(spec);
  db.insert_fillers(1);
  return db;
}

void get_positions(const db::Database& db, std::vector<float>& x,
                   std::vector<float>& y) {
  x.resize(db.num_cells_total());
  y.resize(db.num_cells_total());
  for (std::size_t c = 0; c < db.num_cells_total(); ++c) {
    x[c] = static_cast<float>(db.x(c));
    y[c] = static_cast<float>(db.y(c));
  }
}

// ---------------- pooled kernels ----------------

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The SIMD backends this CPU runs: scalar, and AVX2 where supported.
std::vector<simd::Isa> cpu_isas() {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  if (simd::cpu_has_avx2()) isas.push_back(simd::Isa::kAvx2);
  return isas;
}

/// Each GP kernel's entry point with no pool (param 0) or a pool of 1–4
/// workers (the param), against the same entry point called with no pool.
class ParallelKernels : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() > 0) owned_ = std::make_unique<ThreadPool>(GetParam());
  }
  ThreadPool* pool() const { return owned_.get(); }
  /// At most one worker: every kernel must run its inline path.
  bool inline_only() const { return GetParam() <= 1; }
  std::string where(simd::Isa isa) const {
    return std::string(simd::isa_name(isa)) + " at " +
           std::to_string(GetParam()) + " workers";
  }

 private:
  std::unique_ptr<ThreadPool> owned_;
};

TEST_P(ParallelKernels, FusedWirelengthMatchesSerial) {
  db::Database db = make_db();
  // 150 cells carry 210 nets: under the 256-net fan-out threshold, so the
  // kernel runs inline at every pool size.
  db::Database small = make_db(150, 73);
  const simd::Isa before = simd::isa();
  for (const simd::Isa isa : cpu_isas()) {
    simd::select(isa);
    for (const db::Database* d : {&db, &small}) {
      const ops::NetlistView view = ops::build_netlist_view(*d);
      const bool below = view.num_nets < 256;
      std::vector<float> x, y;
      get_positions(*d, x, y);
      const std::size_t n = d->num_cells_total();
      std::vector<float> gx_s(n, 0.0f), gy_s(n, 0.0f);
      const ops::WirelengthSums serial = ops::fused_wl_grad_hpwl(
          view, x.data(), y.data(), 6.0f, gx_s.data(), gy_s.data());
      std::vector<float> gx_p(n, 0.0f), gy_p(n, 0.0f);
      const ops::WirelengthSums par =
          ops::fused_wl_grad_hpwl(view, x.data(), y.data(), 6.0f, gx_p.data(),
                                  gy_p.data(), pool());
      const std::string at = std::to_string(view.num_nets) + " nets, " +
                             where(isa);
      if (inline_only() || below) {
        EXPECT_TRUE(same_bits(par.wa, serial.wa)) << at;
        EXPECT_TRUE(same_bits(par.hpwl, serial.hpwl)) << at;
        EXPECT_TRUE(same_bits(gx_p, gx_s)) << at;
        EXPECT_TRUE(same_bits(gy_p, gy_s)) << at;
        continue;
      }
      // Partitioned: equal up to float accumulation order (the bitwise
      // contract is FusedWirelengthBitwiseMatchesSlotFoldedReference).
      EXPECT_NEAR(par.wa, serial.wa, 1e-6 * std::fabs(serial.wa)) << at;
      EXPECT_NEAR(par.hpwl, serial.hpwl, 1e-6 * serial.hpwl) << at;
      float max_g = 0.0f;
      for (float g : gx_s) max_g = std::max(max_g, std::fabs(g));
      for (std::size_t c = 0; c < view.num_cells; ++c) {
        EXPECT_NEAR(gx_p[c], gx_s[c], 1e-4f * max_g + 1e-6f) << c << ", " << at;
        EXPECT_NEAR(gy_p[c], gy_s[c], 1e-4f * max_g + 1e-6f) << c << ", " << at;
      }
    }
  }
  simd::select(before);
}

TEST_P(ParallelKernels, DensityScatterMatchesSerial) {
  db::Database db = make_db();
  ops::DensityGrid grid(db, 64);
  std::vector<float> x, y;
  get_positions(db, x, y);
  const std::size_t n = db.num_cells_total();
  // 511 cells and a 500-cell list: under the 512-cell fan-out threshold, so
  // the scatters run inline at every pool size. Every other cell of the
  // design is a list above it.
  const std::size_t lo = 100, hi = 611;
  std::vector<std::uint32_t> small_list, big_list;
  for (std::uint32_t c = 0; c < 1000; c += 2) small_list.push_back(c);
  for (std::uint32_t c = 1; c < n; c += 2) big_list.push_back(c);
  ASSERT_GT(big_list.size(), 512u);

  // Equal bits where the scatter runs inline; otherwise equal up to the
  // accumulation order of the slot-ordered fold.
  const auto check = [&](const std::vector<double>& par,
                         const std::vector<double>& serial, bool fans_out,
                         const std::string& at) {
    if (!fans_out) {
      EXPECT_TRUE(same_bits(par, serial)) << at;
      return;
    }
    for (std::size_t b = 0; b < grid.num_bins(); ++b) {
      EXPECT_NEAR(par[b], serial[b], 1e-9 + 1e-9 * std::fabs(serial[b]))
          << b << ", " << at;
    }
  };
  const simd::Isa before = simd::isa();
  for (const simd::Isa isa : cpu_isas()) {
    simd::select(isa);
    std::vector<double> serial(grid.num_bins()), par(grid.num_bins());
    grid.accumulate_range("s", x.data(), y.data(), 0, n, serial.data(), true);
    grid.accumulate_range("p", x.data(), y.data(), 0, n, par.data(), true,
                          pool());
    check(par, serial, !inline_only(), "full range, " + where(isa));

    // Small range onto a nonzero map (clear = false).
    std::vector<double> small_s = serial, small_p = serial;
    grid.accumulate_range("s", x.data(), y.data(), lo, hi, small_s.data(),
                          false);
    grid.accumulate_range("p", x.data(), y.data(), lo, hi, small_p.data(),
                          false, pool());
    check(small_p, small_s, false, "511-cell range, " + where(isa));

    std::vector<double> list_s(grid.num_bins()), list_p(grid.num_bins());
    grid.accumulate_cells("s", x.data(), y.data(), small_list, list_s.data(),
                          true);
    grid.accumulate_cells("p", x.data(), y.data(), small_list, list_p.data(),
                          true, pool());
    check(list_p, list_s, false, "500-cell list, " + where(isa));

    // Large list onto a nonzero map.
    std::vector<double> big_s = serial, big_p = serial;
    grid.accumulate_cells("s", x.data(), y.data(), big_list, big_s.data(),
                          false);
    grid.accumulate_cells("p", x.data(), y.data(), big_list, big_p.data(),
                          false, pool());
    check(big_p, big_s, !inline_only(),
          std::to_string(big_list.size()) + "-cell list, " + where(isa));
  }
  simd::select(before);
}

TEST_P(ParallelKernels, GatherMatchesSerial) {
  db::Database db = make_db();
  ops::DensityGrid grid(db, 64);
  std::vector<float> x, y;
  get_positions(db, x, y);
  const std::size_t n = db.num_cells_total();
  // Synthetic field.
  std::vector<double> ex(grid.num_bins()), ey(grid.num_bins());
  for (std::size_t b = 0; b < grid.num_bins(); ++b) {
    ex[b] = std::sin(0.01 * static_cast<double>(b));
    ey[b] = std::cos(0.013 * static_cast<double>(b));
  }
  // A nonzero incoming gradient: the gather accumulates into it.
  std::vector<float> base(n);
  for (std::size_t c = 0; c < n; ++c) {
    base[c] = 0.5f * std::cos(0.3f * static_cast<float>(c));
  }
  std::vector<std::uint32_t> cells;
  for (std::uint32_t c = 0; c < n; c += 3) cells.push_back(c);

  // Each cell owns its gradient slot, so the pooled gather equals the inline
  // one bit for bit at every pool size.
  const simd::Isa before = simd::isa();
  for (const simd::Isa isa : cpu_isas()) {
    simd::select(isa);
    std::vector<float> gx_s = base, gy_s = base, gx_p = base, gy_p = base;
    grid.gather_field("s", x.data(), y.data(), 0, db.num_movable(), ex.data(),
                      ey.data(), -1.0f, gx_s.data(), gy_s.data());
    grid.gather_field("p", x.data(), y.data(), 0, db.num_movable(), ex.data(),
                      ey.data(), -1.0f, gx_p.data(), gy_p.data(), pool());
    EXPECT_TRUE(same_bits(gx_p, gx_s)) << "range, " << where(isa);
    EXPECT_TRUE(same_bits(gy_p, gy_s)) << "range, " << where(isa);

    gx_s = gy_s = gx_p = gy_p = base;
    grid.gather_field_cells("s", x.data(), y.data(), cells, ex.data(),
                            ey.data(), -1.0f, gx_s.data(), gy_s.data());
    grid.gather_field_cells("p", x.data(), y.data(), cells, ex.data(),
                            ey.data(), -1.0f, gx_p.data(), gy_p.data(),
                            pool());
    EXPECT_TRUE(same_bits(gx_p, gx_s)) << "list, " << where(isa);
    EXPECT_TRUE(same_bits(gy_p, gy_s)) << "list, " << where(isa);
  }
  simd::select(before);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelKernels,
                         ::testing::Values(0, 1, 2, 3, 4));

/// The pooled WA kernel's contract, rebuilt from the serial kernel: slot w
/// owns nets [w·N/W, (w+1)·N/W), runs them alone (every other net masked off)
/// into a private zeroed buffer, and the slots fold in order, per cell and
/// for the two sums.
ops::WirelengthSums slot_folded_reference(const ops::NetlistView& view,
                                          const float* x, const float* y,
                                          float gamma, std::size_t workers,
                                          float* grad_x, float* grad_y) {
  const std::size_t n = view.num_cells;
  std::vector<std::vector<float>> gx(workers), gy(workers);
  std::vector<ops::WirelengthSums> slot(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = w * view.num_nets / workers;
    const std::size_t hi = (w + 1) * view.num_nets / workers;
    ops::NetlistView own = view;
    for (std::size_t e = 0; e < view.num_nets; ++e) {
      if (e < lo || e >= hi) own.net_mask[e] = 0;
    }
    gx[w].assign(n, 0.0f);
    gy[w].assign(n, 0.0f);
    slot[w] = ops::fused_wl_grad_hpwl(own, x, y, gamma, gx[w].data(),
                                      gy[w].data());
  }
  for (std::size_t c = 0; c < n; ++c) {
    float ax = 0.0f, ay = 0.0f;
    for (std::size_t w = 0; w < workers; ++w) {
      ax += gx[w][c];
      ay += gy[w][c];
    }
    grad_x[c] += ax;
    grad_y[c] += ay;
  }
  ops::WirelengthSums sums;
  for (std::size_t w = 0; w < workers; ++w) {
    sums.wa += slot[w].wa;
    sums.hpwl += slot[w].hpwl;
  }
  return sums;
}

TEST(ParallelKernels, FusedWirelengthBitwiseMatchesSlotFoldedReference) {
  db::Database db = make_db();
  const ops::NetlistView view = ops::build_netlist_view(db);
  std::vector<float> x, y;
  get_positions(db, x, y);
  // A nonzero incoming gradient: the kernel accumulates into it.
  std::vector<float> base(view.num_cells);
  for (std::size_t c = 0; c < base.size(); ++c) {
    base[c] = 0.25f * std::sin(0.7f * static_cast<float>(c));
  }
  const simd::Isa before = simd::isa();
  for (const simd::Isa isa : cpu_isas()) {
    simd::select(isa);
    for (const std::size_t workers : {2u, 3u, 4u, 7u}) {
      std::vector<float> gx_r = base, gy_r = base;
      const ops::WirelengthSums ref = slot_folded_reference(
          view, x.data(), y.data(), 6.0f, workers, gx_r.data(), gy_r.data());
      ThreadPool pool(workers);
      std::vector<float> gx_p = base, gy_p = base;
      const ops::WirelengthSums par = ops::fused_wl_grad_hpwl(
          view, x.data(), y.data(), 6.0f, gx_p.data(), gy_p.data(), &pool);
      const std::string where = std::string(simd::isa_name(isa)) + " at " +
                                std::to_string(workers) + " workers";
      EXPECT_EQ(0, std::memcmp(&par.wa, &ref.wa, sizeof(double))) << where;
      EXPECT_EQ(0, std::memcmp(&par.hpwl, &ref.hpwl, sizeof(double))) << where;
      EXPECT_EQ(0, std::memcmp(gx_p.data(), gx_r.data(),
                               gx_r.size() * sizeof(float)))
          << where;
      EXPECT_EQ(0, std::memcmp(gy_p.data(), gy_r.data(),
                               gy_r.size() * sizeof(float)))
          << where;
    }
  }
  simd::select(before);
}

TEST(ParallelKernels, DeterministicForFixedPoolSize) {
  db::Database db = make_db();
  const ops::NetlistView view = ops::build_netlist_view(db);
  std::vector<float> x, y;
  get_positions(db, x, y);
  ThreadPool pool(3);
  std::vector<float> g1(db.num_cells_total(), 0.0f), g2(db.num_cells_total(), 0.0f);
  std::vector<float> h1(db.num_cells_total(), 0.0f), h2(db.num_cells_total(), 0.0f);
  const auto r1 = ops::fused_wl_grad_hpwl(view, x.data(), y.data(), 6.0f,
                                          g1.data(), h1.data(), &pool);
  const auto r2 = ops::fused_wl_grad_hpwl(view, x.data(), y.data(), 6.0f,
                                          g2.data(), h2.data(), &pool);
  EXPECT_EQ(r1.wa, r2.wa);
  EXPECT_EQ(r1.hpwl, r2.hpwl);
  for (std::size_t c = 0; c < view.num_cells; ++c) {
    ASSERT_EQ(g1[c], g2[c]);
    ASSERT_EQ(h1[c], h2[c]);
  }
}

// ---------------- plotting ----------------

TEST(Plot, SvgContainsCellsAndValidStructure) {
  db::Database db = make_db(200, 3);
  const std::string path = testing::TempDir() + "/place.svg";
  io::SvgOptions opts;
  opts.draw_nets = true;
  opts.max_nets = 20;
  io::write_placement_svg(db, path, opts);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_NE(content.find("</svg>"), std::string::npos);
  // One rect per movable + fixed cell at least.
  std::size_t rects = 0;
  for (std::size_t pos = 0; (pos = content.find("<rect", pos)) != std::string::npos;
       ++pos) {
    ++rects;
  }
  EXPECT_GT(rects, db.num_physical());
}

TEST(Plot, PpmHeaderAndSize) {
  const int m = 16;
  std::vector<double> map(m * m);
  for (int i = 0; i < m * m; ++i) map[i] = i;
  const std::string path = testing::TempDir() + "/density.ppm";
  io::write_density_ppm(map, m, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxv;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, m);
  EXPECT_EQ(h, m);
  EXPECT_EQ(maxv, 255);
  in.get();  // single whitespace
  std::vector<char> pixels(static_cast<std::size_t>(m) * m * 3);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
}

TEST(Plot, SignedMapUsesDivergingColors) {
  const int m = 8;
  std::vector<double> map(m * m, 0.0);
  map[0] = -1.0;   // strongly negative → blue
  map[m * m - 1] = 1.0;  // strongly positive → red
  const std::string path = testing::TempDir() + "/field.ppm";
  io::write_signed_map_ppm(map, m, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);  // P6
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  std::vector<unsigned char> px(static_cast<std::size_t>(m) * m * 3);
  in.read(reinterpret_cast<char*>(px.data()), static_cast<std::streamsize>(px.size()));
  // map[0] = (ix=0, iy=0) → bottom-left → image row m-1, col 0.
  const std::size_t bottom_left = (static_cast<std::size_t>(m - 1) * m + 0) * 3;
  EXPECT_LT(px[bottom_left], 100);        // low red
  EXPECT_EQ(px[bottom_left + 2], 255);    // full blue
  // map[last] = (ix=m-1, iy=m-1) → top-right → row 0, col m-1.
  const std::size_t top_right = (static_cast<std::size_t>(m - 1)) * 3;
  EXPECT_EQ(px[top_right], 255);          // full red
  EXPECT_LT(px[top_right + 2], 100);      // low blue
}

// ---------------- .wts net weights ----------------

TEST(Wts, WeightsSurviveRoundTripAndScaleHpwl) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/wts_test";
  fs::create_directories(dir);
  io::GeneratorSpec spec;
  spec.name = "wts";
  spec.num_cells = 100;
  spec.num_nets = 110;
  spec.seed = 5;
  db::Database orig = io::generate(spec);
  io::write_bookshelf(orig, dir, "wts");
  // Overwrite the .wts with non-trivial weights.
  {
    std::ofstream out(dir + "/wts.wts");
    out << "UCLA wts 1.0\n";
    for (std::size_t e = 0; e < orig.num_nets(); ++e) {
      out << orig.net_name(e) << " " << (e % 3 == 0 ? 2.5 : 1.0) << "\n";
    }
  }
  db::Database back = io::read_bookshelf_aux(dir + "/wts.aux");
  double expected = 0.0;
  // Verify weights and the weighted HPWL.
  for (std::size_t e = 0; e < back.num_nets(); ++e) {
    const double w = back.net_weight(e);
    EXPECT_TRUE(w == 2.5 || w == 1.0);
    expected += w * back.net_hpwl(e);
  }
  EXPECT_NEAR(back.hpwl(), expected, 1e-9 * expected);
  EXPECT_GT(back.hpwl(), orig.hpwl());  // some weights > 1
}

// ---------------- inflation ----------------

TEST(Inflation, FactorsTrackCongestion) {
  db::Database db = make_db(800, 11);
  route::CongestionConfig ccfg;
  ccfg.grid = 16;
  ccfg.tracks_per_gcell = 2.0;  // tight: guaranteed congestion
  const route::CongestionResult res = route::estimate_congestion(db, ccfg);
  const auto factors = route::compute_inflation_factors(db, res);
  ASSERT_EQ(factors.size(), db.num_movable());
  double max_f = 1.0;
  for (double f : factors) {
    EXPECT_GE(f, 1.0);
    EXPECT_LE(f, route::InflationConfig{}.max_factor);
    max_f = std::max(max_f, f);
  }
  EXPECT_GT(max_f, 1.0) << "tight capacity must inflate something";
}

TEST(Inflation, NoInflationWithAmpleCapacity) {
  db::Database db = make_db(400, 13);
  route::CongestionConfig ccfg;
  ccfg.grid = 16;
  ccfg.tracks_per_gcell = 1e6;
  const auto factors = route::compute_inflation_factors(
      db, route::estimate_congestion(db, ccfg));
  for (double f : factors) EXPECT_DOUBLE_EQ(f, 1.0);
}

TEST(Inflation, ApplyGrowsAreaWithinBudget) {
  io::GeneratorSpec spec;
  spec.name = "infl";
  spec.num_cells = 500;
  spec.num_nets = 520;
  spec.seed = 17;
  db::Database db = io::generate(spec);  // no fillers yet
  std::vector<double> factors(db.num_movable(), 1.5);
  const double before = db.total_movable_area();
  const double growth = route::apply_inflation(db, factors);
  EXPECT_GT(growth, 1.0);
  EXPECT_NEAR(db.total_movable_area(), before * growth, 1e-6 * before);
  // Budget respected.
  const double free_area = db.region().area() - db.fixed_area_in_region();
  EXPECT_LE(db.total_movable_area(), 0.96 * db.target_density() * free_area);
}

TEST(Inflation, ScaleWidthGuards) {
  db::Database db = make_db(100, 19);  // fillers inserted
  EXPECT_THROW(db.scale_cell_width(0, 1.2), std::logic_error);  // after fillers
  io::GeneratorSpec spec;
  spec.name = "guard";
  spec.num_cells = 50;
  spec.num_nets = 60;
  spec.seed = 23;
  db::Database fresh = io::generate(spec);
  EXPECT_THROW(fresh.scale_cell_width(fresh.num_movable(), 1.2),
               std::invalid_argument);  // fixed cell
  EXPECT_THROW(fresh.scale_cell_width(0, 0.0), std::invalid_argument);
  const double w0 = fresh.width(0);
  fresh.scale_cell_width(0, 2.0);
  EXPECT_DOUBLE_EQ(fresh.width(0), 2.0 * w0);
}

}  // namespace
}  // namespace xplace
