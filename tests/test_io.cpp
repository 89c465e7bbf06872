#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include "db/stats.h"
#include "io/bookshelf.h"
#include "io/generator.h"
#include "io/suites.h"

namespace xplace::io {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("xplace_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

GeneratorSpec small_spec() {
  GeneratorSpec spec;
  spec.name = "unit";
  spec.num_cells = 800;
  spec.num_nets = 850;
  spec.num_macros = 4;
  spec.num_io_pads = 16;
  spec.seed = 123;
  return spec;
}

// ---------------- generator ----------------

TEST(Generator, ProducesRequestedCounts) {
  db::Database db = generate(small_spec());
  EXPECT_EQ(db.num_movable(), 800u);
  EXPECT_EQ(db.num_nets(), 850u);
  EXPECT_EQ(db.num_fixed(), 4u + 16u);  // macros + pads
  EXPECT_GT(db.num_pins(), 2u * db.num_nets());  // avg degree > 2
}

TEST(Generator, DeterministicForSameSeed) {
  db::Database a = generate(small_spec());
  db::Database b = generate(small_spec());
  ASSERT_EQ(a.num_pins(), b.num_pins());
  ASSERT_EQ(a.num_cells_total(), b.num_cells_total());
  EXPECT_DOUBLE_EQ(a.hpwl(), b.hpwl());
  for (std::size_t p = 0; p < a.num_pins(); p += 97) {
    EXPECT_EQ(a.pin_cell(p), b.pin_cell(p));
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorSpec s1 = small_spec();
  GeneratorSpec s2 = small_spec();
  s2.seed = 124;
  db::Database a = generate(s1);
  db::Database b = generate(s2);
  EXPECT_NE(a.hpwl(), b.hpwl());
}

TEST(Generator, UtilizationNearTarget) {
  GeneratorSpec spec = small_spec();
  spec.utilization = 0.65;
  db::Database db = generate(spec);
  const db::DesignStats s = db::compute_stats(db);
  EXPECT_NEAR(s.utilization, 0.65, 0.08);
}

TEST(Generator, MacrosDoNotOverlapEachOther) {
  GeneratorSpec spec = small_spec();
  spec.num_macros = 9;
  spec.macro_area_fraction = 0.25;
  db::Database db = generate(spec);
  std::vector<RectD> macros;
  for (std::size_t c = db.num_movable(); c < db.num_physical(); ++c) {
    if (db.width(c) > 2.0) macros.push_back(db.cell_rect(c));
  }
  EXPECT_EQ(macros.size(), 9u);
  for (std::size_t i = 0; i < macros.size(); ++i) {
    for (std::size_t j = i + 1; j < macros.size(); ++j) {
      EXPECT_LE(macros[i].overlap_area(macros[j]), 1e-9)
          << "macros " << i << " and " << j << " overlap";
    }
  }
}

TEST(Generator, AllNetsHaveAtLeastTwoPins) {
  db::Database db = generate(small_spec());
  for (std::size_t e = 0; e < db.num_nets(); ++e) {
    EXPECT_GE(db.net_degree(e), 2u);
  }
}

TEST(Generator, MovableCellsInsideRegion) {
  db::Database db = generate(small_spec());
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    EXPECT_TRUE(db.region().contains(db.x(c), db.y(c)));
  }
}

TEST(Generator, RowsTileTheRegion) {
  db::Database db = generate(small_spec());
  ASSERT_FALSE(db.rows().empty());
  double covered = 0.0;
  for (const auto& row : db.rows()) covered += (row.hx() - row.lx) * row.height;
  EXPECT_NEAR(covered, db.region().area(), 1e-6 * db.region().area());
}

// ---------------- suites ----------------

TEST(Suites, TableOneCountsMatchPaper) {
  const auto& s05 = ispd2005_suite();
  ASSERT_EQ(s05.size(), 8u);
  EXPECT_EQ(s05[0].design, "adaptec1");
  EXPECT_EQ(s05[0].paper_cells, 211000u);
  EXPECT_EQ(s05[7].design, "bigblue4");
  EXPECT_EQ(s05[7].paper_cells, 2177000u);
  const auto& s15 = ispd2015_suite();
  ASSERT_EQ(s15.size(), 20u);
}

TEST(Suites, LookupByName) {
  EXPECT_EQ(find_suite_entry("superblue12").paper_cells, 1293000u);
  EXPECT_THROW(find_suite_entry("nonexistent"), std::invalid_argument);
}

TEST(Suites, ScaledInstantiation) {
  db::Database db = make_design("adaptec1", 100.0);
  EXPECT_NEAR(static_cast<double>(db.num_movable()), 2110.0, 5.0);
  EXPECT_EQ(db.design_name(), "adaptec1");
  EXPECT_THROW(make_design("adaptec1", 0.5), std::invalid_argument);
}

// ---------------- bookshelf round trip ----------------

TEST(Bookshelf, RoundTripPreservesDesign) {
  TempDir tmp;
  db::Database orig = generate(small_spec());
  write_bookshelf(orig, tmp.path(), "unit");
  db::Database back = read_bookshelf_aux(tmp.path() + "/unit.aux");

  EXPECT_EQ(back.num_movable(), orig.num_movable());
  EXPECT_EQ(back.num_fixed(), orig.num_fixed());
  EXPECT_EQ(back.num_nets(), orig.num_nets());
  EXPECT_EQ(back.num_pins(), orig.num_pins());
  EXPECT_EQ(back.rows().size(), orig.rows().size());
  EXPECT_NEAR(back.hpwl(), orig.hpwl(), 1e-6 * orig.hpwl() + 1e-6);
  // Region recovered from rows.
  EXPECT_NEAR(back.region().hx, orig.region().hx, 1e-9);
  // Cell geometry by name.
  for (std::size_t c = 0; c < orig.num_physical(); c += 53) {
    const int id = back.cell_id(orig.cell_name(c));
    ASSERT_GE(id, 0);
    EXPECT_DOUBLE_EQ(back.width(id), orig.width(c));
    EXPECT_NEAR(back.x(id), orig.x(c), 1e-6);
  }
}

TEST(Bookshelf, PlWriteReadRoundTrip) {
  TempDir tmp;
  db::Database db = generate(small_spec());
  // Move everything, save, scramble, reload.
  std::vector<double> saved_x(db.num_physical());
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    db.set_position(c, db.x(c) + 1.5, db.y(c) + 2.5);
  }
  for (std::size_t c = 0; c < db.num_physical(); ++c) saved_x[c] = db.x(c);
  const std::string pl = tmp.path() + "/out.pl";
  write_pl(db, pl);
  for (std::size_t c = 0; c < db.num_movable(); ++c) db.set_position(c, 0, 0);
  read_pl_into(db, pl);
  for (std::size_t c = 0; c < db.num_physical(); ++c) {
    EXPECT_NEAR(db.x(c), saved_x[c], 1e-6) << db.cell_name(c);
  }
}

TEST(Bookshelf, MissingFileThrows) {
  EXPECT_THROW(read_bookshelf_aux("/nonexistent/dir/x.aux"), std::runtime_error);
}

TEST(Bookshelf, MalformedNodesDiagnostic) {
  TempDir tmp;
  std::ofstream(tmp.path() + "/bad.aux")
      << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  std::ofstream(tmp.path() + "/bad.nodes") << "UCLA nodes 1.0\n  o1\n";  // too few fields
  std::ofstream(tmp.path() + "/bad.nets") << "UCLA nets 1.0\n";
  std::ofstream(tmp.path() + "/bad.pl") << "UCLA pl 1.0\n";
  std::ofstream(tmp.path() + "/bad.scl") << "";
  try {
    read_bookshelf_aux(tmp.path() + "/bad.aux");
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.nodes"), std::string::npos);
  }
}

TEST(Bookshelf, CountMismatchDetected) {
  TempDir tmp;
  std::ofstream(tmp.path() + "/bad.aux")
      << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  std::ofstream(tmp.path() + "/bad.nodes")
      << "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 0\n o1 2 2\n";
  std::ofstream(tmp.path() + "/bad.nets") << "UCLA nets 1.0\nNumNets : 0\n";
  std::ofstream(tmp.path() + "/bad.pl") << "UCLA pl 1.0\no1 0 0 : N\n";
  std::ofstream(tmp.path() + "/bad.scl") << "";
  EXPECT_THROW(read_bookshelf_aux(tmp.path() + "/bad.aux"), std::runtime_error);
}

TEST(Bookshelf, UnknownCellInNetThrows) {
  TempDir tmp;
  std::ofstream(tmp.path() + "/bad.aux")
      << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  std::ofstream(tmp.path() + "/bad.nodes")
      << "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n o1 2 2\n";
  std::ofstream(tmp.path() + "/bad.nets")
      << "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n"
      << " o1 I : 0 0\n oMISSING I : 0 0\n";
  std::ofstream(tmp.path() + "/bad.pl") << "UCLA pl 1.0\no1 0 0 : N\n";
  std::ofstream(tmp.path() + "/bad.scl") << "";
  EXPECT_THROW(read_bookshelf_aux(tmp.path() + "/bad.aux"), std::runtime_error);
}

// ---------------- parser negative paths (diagnostics) ----------------
//
// Every malformed input must fail with a `path:line: message` diagnostic (or
// `path: message` for file-level count checks) — never a crash or a silently
// half-parsed database.

std::string write_design(const TempDir& tmp, const std::string& nodes,
                         const std::string& nets,
                         const std::string& pl = "UCLA pl 1.0\no1 0 0 : N\n",
                         const std::string& scl = "") {
  std::ofstream(tmp.path() + "/bad.aux")
      << "RowBasedPlacement : bad.nodes bad.nets bad.wts bad.pl bad.scl\n";
  std::ofstream(tmp.path() + "/bad.nodes") << nodes;
  std::ofstream(tmp.path() + "/bad.nets") << nets;
  std::ofstream(tmp.path() + "/bad.pl") << pl;
  std::ofstream(tmp.path() + "/bad.scl") << scl;
  return tmp.path() + "/bad.aux";
}

const std::string kGoodNodes =
    "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n o1 2 2\n";
const std::string kGoodNets = "UCLA nets 1.0\nNumNets : 0\n";

void expect_diag(const std::string& aux, const std::string& needle) {
  try {
    read_bookshelf_aux(aux);
    FAIL() << "expected parse error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(BookshelfDiag, TruncatedNetsReportsEofWithLine) {
  TempDir tmp;
  // NetDegree promises 2 pins but the file ends after 1.
  const std::string aux = write_design(
      tmp, kGoodNodes,
      "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n"
      " o1 I : 0 0\n");
  expect_diag(aux, "bad.nets:5: unexpected EOF inside net");
}

TEST(BookshelfDiag, NumNodesMismatchNamesBothCounts) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 0\n o1 2 2\n",
      kGoodNets);
  expect_diag(aux, "bad.nodes: NumNodes=3 but 1 nodes found");
}

TEST(BookshelfDiag, NumNetsMismatchReported) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, kGoodNodes,
      "UCLA nets 1.0\nNumNets : 5\nNumPins : 2\nNetDegree : 2 n0\n"
      " o1 I : 0 0\n o1 I : 1 1\n");
  expect_diag(aux, "bad.nets: NumNets mismatch");
}

TEST(BookshelfDiag, NonNumericNodeFieldWithLine) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n o1 ww 2\n",
      kGoodNets);
  expect_diag(aux, "bad.nodes:4: expected a number, got 'ww'");
}

TEST(BookshelfDiag, MalformedPinLineWithLine) {
  TempDir tmp;
  // 4 tokens: neither the 2/3-token short form nor the 5-token offset form.
  const std::string aux = write_design(
      tmp, kGoodNodes,
      "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n"
      " o1 I : 0\n o1 I : 0 0\n");
  expect_diag(aux, "bad.nets:5: malformed pin line");
}

TEST(BookshelfDiag, UnexpectedTokenInNetsWithLine) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, kGoodNodes, "UCLA nets 1.0\nNumNets : 0\nGarbageToken here\n");
  expect_diag(aux, "bad.nets:3: unexpected token 'GarbageToken'");
}

TEST(BookshelfDiag, EmptyAuxReported) {
  TempDir tmp;
  std::ofstream(tmp.path() + "/bad.aux") << "";
  expect_diag(tmp.path() + "/bad.aux", "empty aux file");
}

TEST(BookshelfDiag, NodeLineTooShortWithLine) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n o1\n", kGoodNets);
  expect_diag(aux, "bad.nodes:4: node line needs 'name width height'");
}

TEST(Bookshelf, FixedFlagInPlMakesCellFixed) {
  TempDir tmp;
  std::ofstream(tmp.path() + "/d.aux")
      << "RowBasedPlacement : d.nodes d.nets d.wts d.pl d.scl\n";
  std::ofstream(tmp.path() + "/d.nodes")
      << "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 0\n a 2 2\n b 2 2\n"
      << " prefixed_b 2 2\n";
  std::ofstream(tmp.path() + "/d.nets")
      << "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n"
      << " a I : 0 0\n b I : 0 0\n";
  // Only the flag tokens after "name x y" count: a movable cell whose name
  // contains "fixed" stays movable.
  std::ofstream(tmp.path() + "/d.pl")
      << "UCLA pl 1.0\na 0 0 : N\nb 10 10 : N /FIXED\nprefixed_b 10 10 : N\n";
  std::ofstream(tmp.path() + "/d.scl")
      << "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n Sitewidth : 1\n"
      << " SubrowOrigin : 0 NumSites : 50\nEnd\n";
  db::Database db = read_bookshelf_aux(tmp.path() + "/d.aux");
  EXPECT_EQ(db.num_movable(), 2u);
  EXPECT_EQ(db.num_fixed(), 1u);
  EXPECT_EQ(db.kind(db.cell_id("b")), db::CellKind::kFixed);
  EXPECT_EQ(db.kind(db.cell_id("prefixed_b")), db::CellKind::kMovable);
}

// ---------------- reader hardening ----------------

const std::string kSclHead =
    "CoreRow Horizontal\n Coordinate : 0\n Height : 12\n Sitewidth : 1\n";
const std::string kGoodPl = "UCLA pl 1.0\no1 0 0 : N\n";

TEST(BookshelfDiag, SubrowOriginWithoutValueWithLine) {
  TempDir tmp;
  const std::string aux = write_design(tmp, kGoodNodes, kGoodNets, kGoodPl,
                                       kSclHead + " SubrowOrigin :\nEnd\n");
  expect_diag(aux, "bad.scl:5: SubrowOrigin needs a value");
}

TEST(BookshelfDiag, NumSitesWithoutValueWithLine) {
  TempDir tmp;
  const std::string aux = write_design(tmp, kGoodNodes, kGoodNets, kGoodPl,
                                       kSclHead + " SubrowOrigin : 0 NumSites :\nEnd\n");
  expect_diag(aux, "bad.scl:5: NumSites needs a value");
}

TEST(BookshelfDiag, NumSitesOutOfRangeWithLine) {
  for (const char* sites : {"-1", "3000000000"}) {
    TempDir tmp;
    const std::string aux = write_design(
        tmp, kGoodNodes, kGoodNets, kGoodPl,
        kSclHead + " SubrowOrigin : 0 NumSites : " + sites + "\nEnd\n");
    expect_diag(aux, "bad.scl:5: NumSites out of range");
  }
}

// Found by BookshelfFuzz in the previous reader, which reserved the declared
// degree: -5 escaped as std::length_error, 3000000000 as std::bad_alloc.
TEST(BookshelfDiag, NetDegreeOutOfRangeWithLine) {
  // The third degree asks for more pin lines than the 12 bytes left in the
  // file could hold.
  for (const char* degree : {"-5", "3000000000", "4"}) {
    TempDir tmp;
    const std::string aux = write_design(
        tmp, kGoodNodes,
        std::string("UCLA nets 1.0\nNumNets : 1\nNetDegree : ") + degree +
            " n0\n o1 I\n o1 I\n");
    expect_diag(aux, "bad.nets:3: NetDegree out of range");
  }
}

// Found by BookshelfFuzz in the previous reader: Database::add_cell's
// std::invalid_argument escaped with no file or line.
TEST(BookshelfDiag, DuplicateNodeWithLine) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n o1 2 2\n o1 2 2\n", kGoodNets);
  expect_diag(aux, "bad.nodes:5: duplicate cell name 'o1'");
}

// Found by BookshelfFuzz in the previous reader: as for a duplicate name.
TEST(BookshelfDiag, NegativeNodeSizeWithLine) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n o1 2 -2\n", kGoodNets);
  expect_diag(aux, "bad.nodes:4: cell 'o1' has negative size");
}

TEST(BookshelfDiag, NonFiniteNumbersWithLine) {
  {
    TempDir tmp;
    const std::string aux = write_design(
        tmp, "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n o1 nan 2\n", kGoodNets);
    expect_diag(aux, "bad.nodes:4: expected a finite number, got 'nan'");
  }
  {
    TempDir tmp;
    const std::string aux =
        write_design(tmp, kGoodNodes, kGoodNets, "UCLA pl 1.0\no1 nan 0 : N\n");
    expect_diag(aux, "bad.pl:2: expected a finite number, got 'nan'");
  }
  {
    TempDir tmp;
    const std::string aux = write_design(
        tmp, kGoodNodes, "UCLA nets 1.0\nNumNets : 1\nNetDegree : 1 n0\n o1 I : inf 0\n");
    expect_diag(aux, "bad.nets:4: expected a finite number, got 'inf'");
  }
}

// Found by BookshelfFuzz in the previous reader: the std::runtime_error
// named neither the .nets file nor a line.
TEST(BookshelfDiag, UnknownCellInNetWithLine) {
  TempDir tmp;
  const std::string aux = write_design(
      tmp, kGoodNodes,
      "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n"
      " o1 I : 0 0\n oMISSING I : 0 0\n");
  expect_diag(aux, "bad.nets:6: net 'n0' references unknown cell 'oMISSING'");
}

TEST(BookshelfDiag, PlIntoUnknownCellWithLineLeavesPositions) {
  TempDir tmp;
  db::Database db = generate(small_spec());
  const double x0 = db.x(0);
  const std::string pl = tmp.path() + "/bad.pl";
  std::ofstream(pl) << "UCLA pl 1.0\n" << db.cell_name(0) << " 1 1 : N\nzz 1 1 : N\n";
  try {
    read_pl_into(db, pl);
    FAIL() << "expected an unknown-cell error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad.pl:3: pl references unknown cell 'zz'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(db.x(0), x0);  // nothing is applied from a file that fails
}

// The numeric grammar: std::from_chars over the whole token, finite values
// only. Every finite token std::stod accepted parses to the same bits. The
// two divergences from stod are stated here: hex is an error, and a
// subnormal parses where stod raised ERANGE.
TEST(BookshelfNumbers, GrammarMatchesStodWithStatedDivergences) {
  struct Case {
    const char* tok;
    const char* error;  ///< nullptr: parses
  };
  const Case cases[] = {
      {"-0", nullptr},         {".5", nullptr},          {"5.", nullptr},
      {"00012", nullptr},      {"1e308", nullptr},       {"+1", nullptr},
      {"+.5", nullptr},        {"-2.5E-3", nullptr},     {"1e309", "number"},
      {"1e-400", "number"},    {"1.5abc", "number"},     {"1e", "number"},
      {"+-1", "number"},       {"1,5", "number"},        {"nan", "finite number"},
      {"inf", "finite number"}, {"-inf", "finite number"},
      {"0x10", "number"},      {"1e-310", nullptr},
  };
  EXPECT_EQ(std::stod("0x10"), 16.0);
  EXPECT_THROW(std::stod("1e-310"), std::out_of_range);
  for (const Case& c : cases) {
    TempDir tmp;
    const std::string aux = write_design(
        tmp, kGoodNodes,
        std::string("UCLA nets 1.0\nNumNets : 1\nNetDegree : 1 n0\n o1 I : ") + c.tok +
            " 0\n");
    if (c.error) {
      expect_diag(aux, std::string("bad.nets:4: expected a ") + c.error + ", got '" +
                           c.tok + "'");
      continue;
    }
    const db::Database db = read_bookshelf_aux(aux);
    const double want = std::strtod(c.tok, nullptr);
    const double got = db.pin_offset_x(0);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << c.tok << " -> " << got;
    if (std::string(c.tok) != "1e-310") {
      const double by_stod = std::stod(c.tok);
      EXPECT_EQ(std::memcmp(&got, &by_stod, sizeof got), 0) << c.tok;
    }
  }
}

TEST(BookshelfNumbers, IntegerGrammar) {
  for (const char* degree : {"+1", "01"}) {
    TempDir tmp;
    const db::Database db = read_bookshelf_aux(write_design(
        tmp, kGoodNodes,
        std::string("UCLA nets 1.0\nNumNets : 1\nNetDegree : ") + degree + " n0\n o1 I\n"));
    EXPECT_EQ(db.num_pins(), 1u) << degree;
  }
  for (const char* degree : {"1.0", "0x1", "1e0", "99999999999999999999"}) {
    TempDir tmp;
    expect_diag(write_design(tmp, kGoodNodes,
                             std::string("UCLA nets 1.0\nNumNets : 1\nNetDegree : ") +
                                 degree + " n0\n o1 I\n"),
                std::string("bad.nets:3: expected an integer, got '") + degree + "'");
  }
}

// ---------------- the parsed Database, pinned ----------------

/// FNV-1a over every DesignCore array of a parsed design (the cell index as
/// each name's id) and its parse-time positions.
std::uint64_t design_fingerprint(const db::Database& db) {
  const db::DesignCore& k = *db.core();
  std::uint64_t h = 14695981039346656037ull;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  };
  const auto num = [&bytes](auto v) { bytes(&v, sizeof v); };
  const auto vec = [&](const auto& v) {
    num(static_cast<std::uint64_t>(v.size()));
    bytes(v.data(), v.size() * sizeof(v[0]));
  };
  const auto rect = [&num](const RectD& r) {
    num(r.lx);
    num(r.ly);
    num(r.hx);
    num(r.hy);
  };
  vec(k.design_name);
  for (const std::string& s : k.cell_names) vec(s);
  vec(k.widths);
  vec(k.heights);
  vec(k.kinds);
  num(k.num_movable);
  num(k.num_physical);
  num(k.cell_index.size());
  for (const std::string& s : k.cell_names) num(k.cell_index.at(s));
  for (const std::string& s : k.net_names) vec(s);
  vec(k.net_weights);
  vec(k.net_pin_start);
  vec(k.pin_cell);
  vec(k.pin_net);
  vec(k.pin_offset_x);
  vec(k.pin_offset_y);
  vec(k.cell_pin_start);
  vec(k.cell_pin_list);
  rect(k.region);
  num(k.target_density);
  for (const db::Row& r : k.rows) {
    num(r.lx);
    num(r.ly);
    num(r.height);
    num(r.site_width);
    num(r.num_sites);
  }
  for (const db::FenceRegion& f : k.fences) {
    vec(f.name);
    rect(f.rect);
  }
  vec(k.cell_fence);
  num(k.total_movable_area);
  num(k.fixed_area_in_region);
  vec(db.x());
  vec(db.y());
  return h;
}

// The constants are what the previous reader (getline + istringstream +
// stod, records keyed by std::unordered_map) produced from the same files:
// the reader must rebuild its Database to the bit, and hash_bookshelf_aux
// must keep naming journaled designs by the same values.
TEST(BookshelfGolden, ParsedDatabaseMatchesPreviousReader) {
  TempDir tmp;
  write_bookshelf(make_design("bigblue1", 64.0), tmp.path(), "bigblue1");
  GeneratorSpec demo;  // the 4k place_bookshelf --demo design
  demo.name = "demo";
  demo.num_cells = 4000;
  demo.num_nets = 4200;
  demo.seed = 11;
  write_bookshelf(generate(demo), tmp.path(), "demo");
  struct Golden {
    const char* design;
    std::uint64_t fingerprint;
    std::size_t resident_bytes;
    std::uint64_t content_hash;
  };
  const Golden golden[] = {
      {"bigblue1", 0x9294fded05c4a090ull, 1335769, 0xd9ac0b6195ab8c51ull},
      {"demo", 0xf58ee1d2efc9bc1dull, 1244124, 0x8a20e217025e0bb5ull},
  };
  for (const Golden& g : golden) {
    const std::string aux = tmp.path() + "/" + g.design + ".aux";
    const db::Database db = read_bookshelf_aux(aux);
    EXPECT_EQ(design_fingerprint(db), g.fingerprint) << g.design;
    EXPECT_EQ(db.core_resident_bytes(), g.resident_bytes) << g.design;
    EXPECT_EQ(hash_bookshelf_aux(aux), g.content_hash) << g.design;
    EXPECT_EQ(read_bookshelf_snapshot(aux)->content_hash, g.content_hash) << g.design;
  }
}

// ---------------- fuzzing ----------------
//
// A seeded mutation fuzzer over read_bookshelf_aux. Every input must yield a
// Database or a std::runtime_error that names a file of the design: any
// other exception, a crash, a hang or a sanitizer report fails. test_io
// carries the "fuzz" label, so the ASan+UBSan CI lane runs it.

constexpr const char* kFuzzExt[] = {".aux", ".nodes", ".nets", ".wts", ".pl", ".scl"};
using DesignText = std::array<std::string, std::size(kFuzzExt)>;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A small generated design and the hand-written fixtures above.
std::vector<DesignText> fuzz_seeds() {
  std::vector<DesignText> seeds;
  TempDir tmp;
  GeneratorSpec spec = small_spec();
  spec.num_cells = 40;
  spec.num_nets = 44;
  spec.num_macros = 1;
  spec.num_io_pads = 4;
  write_bookshelf(generate(spec), tmp.path(), "f");
  DesignText generated;
  for (std::size_t f = 0; f < generated.size(); ++f) {
    generated[f] = slurp(tmp.path() + "/f" + kFuzzExt[f]);
  }
  seeds.push_back(generated);
  const std::string aux = "RowBasedPlacement : f.nodes f.nets f.wts f.pl f.scl\n";
  seeds.push_back({aux, kGoodNodes,
                   "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n0\n"
                   " o1 I : 0 0\n o1 I : 1 1\n",
                   "UCLA wts 1.0\nn0 2\n", kGoodPl, kSclHead + " SubrowOrigin : 0 NumSites : 50\nEnd\n"});
  seeds.push_back({aux,
                   "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n a 2 2\n b 2 2 terminal\n"
                   " prefixed_b 2 2\n",
                   "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\nNetDegree : 2 n0\n a I : 0 0\n"
                   " b O : 0.5 -0.5\nNetDegree : 2\n a I\n prefixed_b B :\n",
                   "", "UCLA pl 1.0\na 0 0 : N\nb 10 10 : N /FIXED\nprefixed_b 4 4 : N\n",
                   kSclHead + " SubrowOrigin : 0 NumSites : 50\nEnd\n"});
  return seeds;
}

bool is_blank(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n); }

  /// One random edit of `s`; `donor` is another file to splice from.
  void mutate(std::string& s, const std::string& donor) {
    switch (below(7)) {
      case 0:  // bit flip
        if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1u << below(8));
        break;
      case 1:  // truncation
        s.resize(below(s.size() + 1));
        break;
      case 2: {  // duplicate a line
        const auto [b, e] = random_line(s);
        s.insert(e, s.substr(b, e - b));
        break;
      }
      case 3: {  // delete a line
        const auto [b, e] = random_line(s);
        s.erase(b, e - b);
        break;
      }
      case 4:  // splice: a prefix of this file, a suffix of the donor
        s = s.substr(0, below(s.size() + 1)) + donor.substr(below(donor.size() + 1));
        break;
      case 5:
        substitute_number(s);
        break;
      default:
        inflate_count(s);
        break;
    }
  }

 private:
  /// [begin, end) of a random line, its '\n' included.
  std::pair<std::size_t, std::size_t> random_line(const std::string& s) {
    if (s.empty()) return {0, 0};
    const std::size_t pos = below(s.size());
    const std::size_t nl = pos == 0 ? std::string::npos : s.rfind('\n', pos - 1);
    const std::size_t next = s.find('\n', pos);
    return {nl == std::string::npos ? 0 : nl + 1, next == std::string::npos ? s.size() : next + 1};
  }

  void substitute_number(std::string& s) {
    static const char* const kValues[] = {"0",   "-1",  "2147483648", "1e308",
                                          "nan", "inf", "-inf",       "1e-310"};
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    for (std::size_t i = 0; i < s.size();) {
      if (is_blank(s[i])) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < s.size() && !is_blank(s[j])) ++j;
      const std::size_t digit = s[i] == '-' || s[i] == '+' || s[i] == '.' ? i + 1 : i;
      if (digit < j && std::isdigit(static_cast<unsigned char>(s[digit]))) {
        numbers.emplace_back(i, j);
      }
      i = j;
    }
    if (numbers.empty()) return;
    const auto [b, e] = numbers[below(numbers.size())];
    s.replace(b, e - b, kValues[below(std::size(kValues))]);
  }

  /// Rewrites the value after a count keyword's ':'.
  void inflate_count(std::string& s) {
    static const char* const kKeys[] = {"NetDegree", "NumNodes", "NumSites", "NumNets"};
    static const char* const kCounts[] = {"3000000000", "2147483647", "99999999999999999999",
                                          "-5",         "1000000",    "0"};
    const std::string key = kKeys[below(std::size(kKeys))];
    std::vector<std::size_t> hits;
    for (std::size_t p = s.find(key); p != std::string::npos; p = s.find(key, p + 1)) {
      hits.push_back(p);
    }
    if (hits.empty()) return;
    std::size_t b = s.find(':', hits[below(hits.size())]);
    if (b == std::string::npos) return;
    ++b;
    while (b < s.size() && (s[b] == ' ' || s[b] == '\t')) ++b;
    std::size_t e = b;
    while (e < s.size() && !is_blank(s[e])) ++e;
    s.replace(b, e - b, kCounts[below(std::size(kCounts))]);
  }

  std::mt19937_64 rng_;
};

std::string dump(const DesignText& d) {
  std::string out;
  for (std::size_t f = 0; f < d.size(); ++f) {
    out += std::string("\n--- f") + kFuzzExt[f] + " ---\n" + d[f].substr(0, 2000);
  }
  return out;
}

TEST(BookshelfFuzz, MutatedInputsYieldDatabaseOrPositionedError) {
  const std::vector<DesignText> seeds = fuzz_seeds();
  TempDir tmp;
  const std::string dir = tmp.path() + "/";
  constexpr int kIterations = 4000;
  Mutator m(20261018);
  DesignText on_disk;
  int parsed = 0, rejected = 0, failures = 0;
  double slowest_s = 0.0;
  for (int it = 0; it < kIterations && failures < 3; ++it) {
    DesignText d = seeds[m.below(seeds.size())];
    for (std::size_t edits = 1 + m.below(3); edits > 0; --edits) {
      // The .aux names the other files, so it is mutated less often.
      const std::size_t f = m.below(12) == 0 ? 0 : 1 + m.below(d.size() - 1);
      const DesignText& donor = seeds[m.below(seeds.size())];
      m.mutate(d[f], donor[m.below(donor.size())]);
    }
    for (std::size_t f = 0; f < d.size(); ++f) {
      if (it > 0 && d[f] == on_disk[f]) continue;
      std::ofstream(dir + "f" + kFuzzExt[f], std::ios::binary) << d[f];
      on_disk[f] = d[f];
    }
    const auto t0 = std::chrono::steady_clock::now();
    try {
      read_bookshelf_aux(dir + "f.aux");
      ++parsed;
    } catch (const std::runtime_error& e) {
      ++rejected;
      if (std::string(e.what()).find(dir) == std::string::npos) {
        ++failures;
        ADD_FAILURE() << "input " << it << ": the error names no design file: " << e.what()
                      << dump(d);
      }
    } catch (const std::exception& e) {
      ++failures;
      ADD_FAILURE() << "input " << it << ": " << typeid(e).name() << " escaped: " << e.what()
                    << dump(d);
    }
    slowest_s = std::max(
        slowest_s, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  EXPECT_LT(slowest_s, 2.0);
  // Both outcomes occur: the mutations neither break every input nor none.
  EXPECT_GT(parsed, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 20);
}

}  // namespace
}  // namespace xplace::io
