#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "db/database.h"
#include "db/stats.h"

namespace xplace::db {
namespace {

/// Small hand-built design: 3 movable cells, 1 fixed macro, 2 nets.
Database tiny_design() {
  Database db;
  db.set_design_name("tiny");
  db.set_region({0, 0, 100, 100});
  db.set_target_density(0.8);
  // Deliberately interleave kinds to exercise the movable-first reorder.
  const int macro = db.add_cell("macro", 20, 20, CellKind::kFixed);
  const int a = db.add_cell("a", 4, 10, CellKind::kMovable);
  const int b = db.add_cell("b", 6, 10, CellKind::kMovable);
  const int c = db.add_cell("c", 8, 10, CellKind::kMovable);
  const int n1 = db.add_net("n1");
  db.add_pin(n1, a, 1.0, 0.0);
  db.add_pin(n1, b, -1.0, 0.0);
  db.add_pin(n1, macro, 0.0, 5.0);
  const int n2 = db.add_net("n2");
  db.add_pin(n2, b, 0.0, 0.0);
  db.add_pin(n2, c, 0.0, 2.0);
  db.set_initial_position(macro, 50, 50);
  db.set_initial_position(a, 10, 10);
  db.set_initial_position(b, 20, 10);
  db.set_initial_position(c, 30, 10);
  db.finalize();
  return db;
}

TEST(Database, MovableFirstOrdering) {
  Database db = tiny_design();
  EXPECT_EQ(db.num_movable(), 3u);
  EXPECT_EQ(db.num_fixed(), 1u);
  EXPECT_EQ(db.num_physical(), 4u);
  for (std::size_t i = 0; i < db.num_movable(); ++i) {
    EXPECT_EQ(db.kind(i), CellKind::kMovable);
  }
  EXPECT_EQ(db.kind(3), CellKind::kFixed);
  EXPECT_EQ(db.cell_name(3), "macro");
  // Names survive the permutation and lookup agrees.
  EXPECT_EQ(db.cell_id("macro"), 3);
  EXPECT_EQ(db.cell_name(db.cell_id("b")), "b");
}

TEST(Database, PositionsFollowPermutation) {
  Database db = tiny_design();
  const int a = db.cell_id("a");
  EXPECT_DOUBLE_EQ(db.x(a), 10.0);
  EXPECT_DOUBLE_EQ(db.y(a), 10.0);
  const int macro = db.cell_id("macro");
  EXPECT_DOUBLE_EQ(db.x(macro), 50.0);
}

TEST(Database, NetCsrStructure) {
  Database db = tiny_design();
  EXPECT_EQ(db.num_nets(), 2u);
  EXPECT_EQ(db.num_pins(), 5u);
  EXPECT_EQ(db.net_degree(0), 3u);
  EXPECT_EQ(db.net_degree(1), 2u);
  // Pin 0 of net 0 connects cell "a" with offset (1, 0).
  const std::size_t p0 = db.net_pin_start(0);
  EXPECT_EQ(db.pin_cell(p0), db.cell_id("a"));
  EXPECT_DOUBLE_EQ(db.pin_offset_x(p0), 1.0);
  // pin_net back-references are consistent.
  for (std::size_t e = 0; e < db.num_nets(); ++e) {
    for (std::size_t p = db.net_pin_start(e); p < db.net_pin_start(e + 1); ++p) {
      EXPECT_EQ(db.pin_net(p), e);
    }
  }
}

TEST(Database, CellPinCsr) {
  Database db = tiny_design();
  // Cell b is on both nets.
  const int b = db.cell_id("b");
  EXPECT_EQ(db.cell_num_nets(b), 2u);
  const int c = db.cell_id("c");
  EXPECT_EQ(db.cell_num_nets(c), 1u);
  // Every pin appears exactly once across all cell pin lists.
  std::vector<int> seen(db.num_pins(), 0);
  for (std::size_t cell = 0; cell < db.num_physical(); ++cell) {
    for (std::size_t k = db.cell_pin_start(cell); k < db.cell_pin_start(cell + 1); ++k) {
      const auto pin = db.cell_pin_list()[k];
      EXPECT_EQ(db.pin_cell(pin), cell);
      ++seen[pin];
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(Database, HpwlMatchesHandComputation) {
  Database db = tiny_design();
  // net1 pins: a(10,10)+(1,0)=(11,10); b(20,10)+(-1,0)=(19,10); macro(50,55).
  // HPWL = (50-11) + (55-10) = 84.
  // net2 pins: b(20,10); c(30,12). HPWL = 10 + 2 = 12.
  EXPECT_NEAR(db.hpwl(), 96.0, 1e-9);
  EXPECT_NEAR(db.net_hpwl(0), 84.0, 1e-9);
  EXPECT_NEAR(db.net_hpwl(1), 12.0, 1e-9);
}

TEST(Database, HpwlSinglePinNetIsZero) {
  Database db;
  db.set_region({0, 0, 10, 10});
  const int a = db.add_cell("a", 1, 1, CellKind::kMovable);
  const int n = db.add_net("n");
  db.add_pin(n, a, 0, 0);
  db.finalize();
  EXPECT_DOUBLE_EQ(db.hpwl(), 0.0);
}

TEST(Database, AreasComputed) {
  Database db = tiny_design();
  EXPECT_DOUBLE_EQ(db.total_movable_area(), 4 * 10 + 6 * 10 + 8 * 10.0);
  EXPECT_DOUBLE_EQ(db.fixed_area_in_region(), 400.0);
}

TEST(Database, FillerInsertion) {
  Database db = tiny_design();
  db.insert_fillers(7);
  // filler area = 0.8*(10000-400) - 180 = 7500, filler = 6x10 → 125 fillers.
  EXPECT_GT(db.num_fillers(), 100u);
  EXPECT_LT(db.num_fillers(), 140u);
  for (std::size_t c = db.num_physical(); c < db.num_cells_total(); ++c) {
    EXPECT_EQ(db.kind(c), CellKind::kFiller);
    EXPECT_TRUE(db.is_filler(c));
    EXPECT_EQ(db.cell_num_nets(c), 0u);
    EXPECT_TRUE(db.region().contains(db.x(c), db.y(c)));
  }
}

TEST(Database, FillerInsertionDeterministic) {
  Database a = tiny_design();
  Database b = tiny_design();
  a.insert_fillers(42);
  b.insert_fillers(42);
  ASSERT_EQ(a.num_fillers(), b.num_fillers());
  for (std::size_t c = a.num_physical(); c < a.num_cells_total(); ++c) {
    EXPECT_DOUBLE_EQ(a.x(c), b.x(c));
    EXPECT_DOUBLE_EQ(a.y(c), b.y(c));
  }
}

TEST(Database, DoubleFillerInsertionThrows) {
  Database db = tiny_design();
  db.insert_fillers(1);
  EXPECT_THROW(db.insert_fillers(1), std::logic_error);
}

TEST(Database, BuilderErrors) {
  Database db;
  EXPECT_THROW(db.add_cell("bad", -1, 5, CellKind::kMovable), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_THROW(db.add_cell("bad", bad, 5, CellKind::kMovable),
                 std::invalid_argument)
        << "width " << bad;
    EXPECT_THROW(db.add_cell("bad", 5, bad, CellKind::kMovable),
                 std::invalid_argument)
        << "height " << bad;
  }
  db.add_cell("dup", 1, 1, CellKind::kMovable);
  EXPECT_THROW(db.add_cell("dup", 1, 1, CellKind::kMovable), std::invalid_argument);
  db.set_region({0, 0, 10, 10});
  db.finalize();
  EXPECT_THROW(db.add_cell("late", 1, 1, CellKind::kMovable), std::logic_error);
  EXPECT_THROW(db.finalize(), std::logic_error);
}

TEST(Database, RegionDefaultsToRowBounds) {
  Database db;
  db.add_cell("a", 1, 1, CellKind::kMovable);
  Row r1{0, 0, 12, 1.0, 100};
  Row r2{0, 12, 12, 1.0, 100};
  db.add_row(r1);
  db.add_row(r2);
  db.finalize();
  EXPECT_DOUBLE_EQ(db.region().hx, 100.0);
  EXPECT_DOUBLE_EQ(db.region().hy, 24.0);
}

TEST(Stats, ComputedFieldsConsistent) {
  Database db = tiny_design();
  const DesignStats s = compute_stats(db);
  EXPECT_EQ(s.design, "tiny");
  EXPECT_EQ(s.num_movable, 3u);
  EXPECT_EQ(s.num_nets, 2u);
  EXPECT_EQ(s.num_pins, 5u);
  EXPECT_NEAR(s.avg_net_degree, 2.5, 1e-12);
  EXPECT_NEAR(s.utilization, 180.0 / 9600.0, 1e-12);
  EXPECT_FALSE(s.row().empty());
  EXPECT_FALSE(DesignStats::header().empty());
}

TEST(Database, CellRectCenteredOnPosition) {
  Database db = tiny_design();
  const int a = db.cell_id("a");
  const RectD r = db.cell_rect(a);
  EXPECT_DOUBLE_EQ(r.width(), 4.0);
  EXPECT_DOUBLE_EQ(r.height(), 10.0);
  EXPECT_DOUBLE_EQ(r.cx(), db.x(a));
  EXPECT_DOUBLE_EQ(r.cy(), db.y(a));
}

}  // namespace
}  // namespace xplace::db
