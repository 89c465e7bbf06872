#include "io/bookshelf.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace xplace::io {
namespace {

using Tokens = std::vector<std::string_view>;

/// Reads a whole file into `bytes`: one read for a regular file, whose size
/// is known up front. False when the file cannot be opened or read.
bool read_file(const std::string& path, std::string& bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  // The spare byte lets the read that reports end of file land without
  // growing the buffer.
  bytes.resize(::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)
                   ? static_cast<std::size_t>(st.st_size) + 1
                   : std::size_t{1} << 16);
  std::size_t used = 0;
  ssize_t n = 0;
  do {
    if (used == bytes.size()) bytes.resize(2 * bytes.size());
    n = ::read(fd, bytes.data() + used, bytes.size() - used);
    if (n > 0) used += static_cast<std::size_t>(n);
  } while (n > 0 || (n < 0 && errno == EINTR));
  ::close(fd);
  bytes.resize(used);
  return n == 0;
}

/// operator>>'s whitespace in the classic locale: ' ', \t, \n, \v, \f, \r.
constexpr bool is_space(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

char lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

/// ASCII case-insensitive equality; `low` is lower case.
bool iequals(std::string_view s, std::string_view low) {
  if (s.size() != low.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (lower(s[i]) != low[i]) return false;
  }
  return true;
}

/// Whether `s` contains `low` (lower case), ignoring ASCII case.
bool icontains(std::string_view s, std::string_view low) {
  for (std::size_t i = 0; i + low.size() <= s.size(); ++i) {
    if (iequals(s.substr(i, low.size()), low)) return true;
  }
  return false;
}

/// Whether `s` is a non-empty stem followed by `low` (lower case), ignoring
/// ASCII case.
bool has_suffix(std::string_view s, std::string_view low) {
  return s.size() > low.size() && iequals(s.substr(s.size() - low.size()), low);
}

/// Parses all of `tok` with std::from_chars. stod/stol also took one leading
/// '+', so it is stripped here; "+-1" stays an error, as it was there.
template <class T>
bool parse_whole(std::string_view tok, T& v) {
  if (!tok.empty() && tok[0] == '+') {
    tok.remove_prefix(1);
    if (!tok.empty() && tok[0] == '-') return false;
  }
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  return ec == std::errc() && ptr == end;
}

/// The one Bookshelf tokenizer. Walks a whole-file buffer line by line,
/// strips '#' comments, splits on whitespace into views of the buffer, and
/// counts lines so every diagnostic reads `path:line: message` (the line of
/// the last line read; at end of input, the file's last line).
class Tokenizer {
 public:
  Tokenizer(const std::string& path, std::string_view bytes)
      : path_(path), pos_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  /// Tokens of the next line that has any; false at end of input.
  bool next(Tokens& t) {
    while (pos_ != end_) {
      ++line_;
      t.clear();
      const char* c = pos_;
      while (c != end_ && *c != '\n') {
        if (*c == '#') {
          const void* eol = std::memchr(c, '\n', static_cast<std::size_t>(end_ - c));
          c = eol ? static_cast<const char*>(eol) : end_;
        } else if (is_space(*c)) {
          ++c;
        } else {
          const char* begin = c;
          while (c != end_ && *c != '#' && !is_space(*c)) ++c;
          t.emplace_back(begin, static_cast<std::size_t>(c - begin));
        }
      }
      pos_ = c == end_ ? end_ : c + 1;
      if (!t.empty()) return true;
    }
    return false;
  }

  /// Bytes after the last line read.
  std::size_t remaining() const { return static_cast<std::size_t>(end_ - pos_); }
  const std::string& path() const { return path_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::runtime_error(path_ + ":" + std::to_string(line_) + ": " + msg);
  }

  /// A finite decimal number. Unlike stod: no hex, no nan/inf, and
  /// subnormals parse instead of raising ERANGE.
  double number(std::string_view tok) const {
    double v = 0.0;
    if (!parse_whole(tok, v)) fail("expected a number, got '" + std::string(tok) + "'");
    if (!std::isfinite(v)) {
      fail("expected a finite number, got '" + std::string(tok) + "'");
    }
    return v;
  }

  long integer(std::string_view tok) const {
    long v = 0;
    if (!parse_whole(tok, v)) fail("expected an integer, got '" + std::string(tok) + "'");
    return v;
  }

 private:
  const std::string& path_;
  const char* pos_;
  const char* end_;
  int line_ = 0;
};

/// Open-addressing map from names to dense ids in insertion order. Keys are
/// views into a file buffer that outlives the table; nothing is copied.
class NameTable {
 public:
  /// The id `name` already has; otherwise adds it as id size() and returns -1.
  int insert(std::string_view name) {
    if (2 * (names_.size() + 1) > slots_.size()) grow();
    const std::uint32_t tag = tag_of(name);
    Slot& slot = slots_[slot_of(name, tag)];
    if (slot.id >= 0) return slot.id;
    slot = Slot{tag, static_cast<std::int32_t>(names_.size())};
    names_.push_back(name);
    return -1;
  }

  /// The id of `name`, or -1.
  int find(std::string_view name) const {
    return slots_.empty() ? -1 : slots_[slot_of(name, tag_of(name))].id;
  }

  std::size_t size() const { return names_.size(); }
  std::string_view name(std::size_t id) const { return names_[id]; }

 private:
  struct Slot {
    std::uint32_t tag;  ///< hash bits; the low bits pick the home slot
    std::int32_t id;    ///< -1: empty
  };

  static std::uint32_t tag_of(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  /// Linear probing from the home slot: the slot holding `name`, or the
  /// empty slot where it would go.
  std::size_t slot_of(std::string_view name, std::uint32_t tag) const {
    std::size_t i = tag & mask_;
    while (slots_[i].id >= 0 && (slots_[i].tag != tag || names_[slots_[i].id] != name)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  /// Doubles the slots (load stays at most 1/2), re-homing by stored tags.
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()), Slot{0, -1});
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id >= 0) slots_[slot_of(names_[s.id], s.tag)] = s;
    }
  }

  std::vector<std::string_view> names_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Every node of a .nodes file by id in file order, plus what the .pl says
/// about it.
struct Nodes {
  enum Flag : std::uint8_t { kTerminal = 1, kPlaced = 2, kPlFixed = 4 };
  NameTable names;
  std::vector<double> width, height;
  std::vector<double> pl_x, pl_y;  ///< lower-left corner from the .pl
  std::vector<std::uint8_t> flags;
};

/// .nodes: "name width height [terminal]".
void read_nodes(Tokenizer& r, Nodes& n) {
  Tokens t;
  long declared_nodes = -1;
  while (r.next(t)) {
    if (t[0] == "UCLA") continue;
    if (t[0] == "NumNodes") {
      declared_nodes = r.integer(t.back());
      continue;
    }
    if (t[0] == "NumTerminals") {
      r.integer(t.back());  // checked, not used
      continue;
    }
    if (t.size() < 3) r.fail("node line needs 'name width height'");
    const double w = r.number(t[1]), h = r.number(t[2]);
    if (w < 0.0 || h < 0.0) r.fail("cell '" + std::string(t[0]) + "' has negative size");
    if (n.names.insert(t[0]) >= 0) r.fail("duplicate cell name '" + std::string(t[0]) + "'");
    n.width.push_back(w);
    n.height.push_back(h);
    n.pl_x.push_back(0.0);
    n.pl_y.push_back(0.0);
    n.flags.push_back(t.size() > 3 && icontains(t[3], "terminal") ? Nodes::kTerminal : 0);
  }
  const std::size_t found = n.names.size();
  if (declared_nodes >= 0 && static_cast<std::size_t>(declared_nodes) != found) {
    throw std::runtime_error(r.path() + ": NumNodes=" + std::to_string(declared_nodes) +
                             " but " + std::to_string(found) + " nodes found");
  }
}

/// .pl: "name x y [: orient] [/FIXED]" with (x, y) the lower-left corner.
/// Calls place(name, x, y, fixed) per line. Only the flag tokens after
/// "name x y" can make the cell fixed.
template <class Place>
void read_pl(Tokenizer& r, Place&& place) {
  Tokens t;
  while (r.next(t)) {
    if (t[0] == "UCLA") continue;
    if (t.size() < 3) r.fail("pl line needs 'name x y'");
    const double x = r.number(t[1]), y = r.number(t[2]);
    bool fixed = false;
    for (std::size_t i = 3; i < t.size(); ++i) fixed = fixed || icontains(t[i], "fixed");
    place(t[0], x, y, fixed);
  }
}

/// .wts: "netname weight" lines; a later line for the same net wins.
struct NetWeights {
  NameTable names;
  std::vector<double> weight;
};

void read_wts(Tokenizer& r, NetWeights& w) {
  Tokens t;
  while (r.next(t)) {
    if (t[0] == "UCLA" || t.size() < 2) continue;
    const double v = r.number(t.back());
    const int id = w.names.insert(t[0]);
    if (id < 0) {
      w.weight.push_back(v);
    } else {
      w.weight[id] = v;
    }
  }
}

/// .nets: "NetDegree : k [name]" then k pin lines "cell I/O/B [: ox oy]"
/// (offsets from the cell center). Pins resolve to cells as they are read.
void read_nets(Tokenizer& r, const NameTable& cells, const NetWeights& weights,
               db::Database& db) {
  Tokens t;
  long declared_nets = -1;
  std::size_t num_nets = 0;
  std::string name;
  while (r.next(t)) {
    if (t[0] == "UCLA" || t[0] == "NumPins") continue;
    if (t[0] == "NumNets") {
      declared_nets = r.integer(t.back());
      continue;
    }
    if (t[0] != "NetDegree") r.fail("unexpected token '" + std::string(t[0]) + "' in nets file");
    if (t.size() < 3) r.fail("NetDegree line needs a degree");
    const long degree = r.integer(t[2]);
    // A pin line is at least two tokens: 3 bytes, plus a line break between
    // lines. A degree the rest of the file cannot hold is never honoured.
    if (degree < 0 || static_cast<std::size_t>(degree) > (r.remaining() + 1) / 4) {
      r.fail("NetDegree out of range");
    }
    if (t.size() > 3) {
      name.assign(t[3]);
    } else {
      name = "net" + std::to_string(num_nets);
    }
    const int w = weights.names.find(name);
    const int e = db.add_net(name, w < 0 ? 1.0 : weights.weight[w]);
    ++num_nets;
    for (long i = 0; i < degree; ++i) {
      if (!r.next(t)) r.fail("unexpected EOF inside net");
      double ox = 0.0, oy = 0.0;  // "cell I" or "cell I :": offset 0 0
      if (t.size() >= 5) {
        ox = r.number(t[3]);
        oy = r.number(t[4]);
      } else if (t.size() != 2 && t.size() != 3) {
        r.fail("malformed pin line");
      }
      const int cell = cells.find(t[0]);
      if (cell < 0) {
        r.fail("net '" + db.net_name(e) + "' references unknown cell '" +
               std::string(t[0]) + "'");
      }
      db.add_pin(e, cell, ox, oy);
    }
  }
  if (declared_nets >= 0 && static_cast<std::size_t>(declared_nets) != num_nets) {
    throw std::runtime_error(r.path() + ": NumNets mismatch");
  }
}

/// .scl: CoreRow ... End blocks.
void read_scl(Tokenizer& r, db::Database& db) {
  Tokens t;
  while (r.next(t)) {
    if (!iequals(t[0], "corerow")) continue;
    db::Row row;
    row.site_width = 1.0;
    while (r.next(t) && !iequals(t[0], "end")) {
      if (iequals(t[0], "coordinate")) {
        row.ly = r.number(t.back());
      } else if (iequals(t[0], "height")) {
        row.height = r.number(t.back());
      } else if (iequals(t[0], "sitewidth")) {
        row.site_width = r.number(t.back());
      } else if (iequals(t[0], "subroworigin")) {
        // "SubrowOrigin : x NumSites : n"
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
          if (t[i + 1] != ":") continue;
          const bool origin = iequals(t[i], "subroworigin");
          if (!origin && !iequals(t[i], "numsites")) continue;
          if (i + 2 == t.size()) {
            r.fail(std::string(origin ? "SubrowOrigin" : "NumSites") + " needs a value");
          }
          if (origin) {
            row.lx = r.number(t[i + 2]);
          } else {
            const long sites = r.integer(t[i + 2]);
            if (sites < 0 || sites > INT_MAX) r.fail("NumSites out of range");
            row.num_sites = static_cast<int>(sites);
          }
        }
      }
      // Ignore Sitespacing / Siteorient / Sitesymmetry etc.
    }
    db.add_row(row);
  }
}

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string stem_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

/// One file of a design. `path` is empty when the .aux names no such file.
struct SourceFile {
  std::string path;
  std::string bytes;
  bool readable = false;
};

SourceFile load(std::string path, bool required) {
  SourceFile f{std::move(path), {}, false};
  if (!f.path.empty()) f.readable = read_file(f.path, f.bytes);
  if (required && !f.readable) throw std::runtime_error("cannot open '" + f.path + "'");
  return f;
}

/// The .aux and every component file it names, each read once. The parse
/// and the content hash both work on these bytes.
struct DesignFiles {
  SourceFile aux, nodes, nets, pl, scl, wts;
};

/// The .nodes, .nets and .pl are required. An unreadable .scl fails the parse
/// but not the hash; an unreadable .wts is skipped by both.
DesignFiles load_design(const std::string& aux_path) {
  DesignFiles f;
  f.aux = load(aux_path, /*required=*/true);
  // .aux: "RowBasedPlacement : f.nodes f.nets f.wts f.pl f.scl"
  Tokenizer r(aux_path, f.aux.bytes);
  Tokens t;
  if (!r.next(t)) r.fail("empty aux file");
  const std::string dir = dir_of(aux_path) + "/";
  std::string nodes, nets, pl, scl, wts;
  for (const std::string_view tok : t) {
    std::string full = dir + std::string(tok);
    if (has_suffix(tok, ".nodes")) nodes = std::move(full);
    else if (has_suffix(tok, ".nets")) nets = std::move(full);
    else if (has_suffix(tok, ".pl")) pl = std::move(full);
    else if (has_suffix(tok, ".scl")) scl = std::move(full);
    else if (has_suffix(tok, ".wts")) wts = std::move(full);
  }
  if (nodes.empty() || nets.empty() || pl.empty()) {
    r.fail("aux must reference .nodes, .nets and .pl files");
  }
  f.nodes = load(std::move(nodes), /*required=*/true);
  f.nets = load(std::move(nets), /*required=*/true);
  f.pl = load(std::move(pl), /*required=*/true);
  f.scl = load(std::move(scl), /*required=*/false);
  f.wts = load(std::move(wts), /*required=*/false);
  return f;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over the aux bytes first (they pin the component file names), then
/// each component's bytes in a fixed order, so the hash does not depend on
/// the directory layout.
std::uint64_t content_hash(const DesignFiles& f) {
  std::uint64_t h = kFnvBasis;
  for (const SourceFile* s : {&f.aux, &f.nodes, &f.nets, &f.pl, &f.scl, &f.wts}) {
    for (const char c : s->bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnvPrime;
    }
  }
  return h;
}

db::Database parse_design(const DesignFiles& f) {
  Nodes nodes;
  Tokenizer nodes_reader(f.nodes.path, f.nodes.bytes);
  read_nodes(nodes_reader, nodes);

  // .pl lines resolve to node ids as they are read; a later line for the
  // same cell wins, and names the .nodes file lacks are ignored.
  Tokenizer pl_reader(f.pl.path, f.pl.bytes);
  read_pl(pl_reader, [&](std::string_view name, double x, double y, bool fixed) {
    const int id = nodes.names.find(name);
    if (id < 0) return;
    nodes.pl_x[id] = x;
    nodes.pl_y[id] = y;
    nodes.flags[id] = static_cast<std::uint8_t>(
        (nodes.flags[id] & Nodes::kTerminal) | Nodes::kPlaced | (fixed ? Nodes::kPlFixed : 0));
  });

  db::Database db;
  db.set_design_name(stem_of(f.aux.path));
  for (std::size_t i = 0; i < nodes.names.size(); ++i) {
    const double w = nodes.width[i], h = nodes.height[i];
    // A node is fixed if it is declared terminal OR its .pl entry says FIXED.
    const bool fixed = (nodes.flags[i] & (Nodes::kTerminal | Nodes::kPlFixed)) != 0;
    const int id = db.add_cell(std::string(nodes.names.name(i)), w, h,
                               fixed ? db::CellKind::kFixed : db::CellKind::kMovable);
    if (nodes.flags[i] & Nodes::kPlaced) {
      // .pl stores the lower-left corner; the database stores centers.
      db.set_initial_position(id, nodes.pl_x[i] + w * 0.5, nodes.pl_y[i] + h * 0.5);
    }
  }

  NetWeights weights;
  if (f.wts.readable) {
    Tokenizer r(f.wts.path, f.wts.bytes);
    read_wts(r, weights);
  }
  Tokenizer nets_reader(f.nets.path, f.nets.bytes);
  read_nets(nets_reader, nodes.names, weights, db);

  if (!f.scl.path.empty()) {
    if (!f.scl.readable) throw std::runtime_error("cannot open '" + f.scl.path + "'");
    Tokenizer r(f.scl.path, f.scl.bytes);
    read_scl(r, db);
  }
  db.finalize();
  return db;
}

}  // namespace

db::Database read_bookshelf_aux(const std::string& aux_path) {
  return parse_design(load_design(aux_path));
}

std::uint64_t hash_bookshelf_aux(const std::string& aux_path) {
  return content_hash(load_design(aux_path));
}

std::shared_ptr<const db::DesignSnapshot> read_bookshelf_snapshot(
    const std::string& aux_path) {
  // One read per file: the stored hash names exactly the bytes parsed.
  const DesignFiles files = load_design(aux_path);
  auto snap = std::make_shared<db::DesignSnapshot>();
  snap->base = parse_design(files);
  snap->content_hash = content_hash(files);
  snap->source = "aux:" + aux_path;
  snap->resident_bytes = snap->base.core_resident_bytes();
  return snap;
}

void read_pl_into(db::Database& db, const std::string& path) {
  const SourceFile f = load(path, /*required=*/true);
  Tokenizer r(f.path, f.bytes);
  // Applied only once the whole file has parsed.
  struct Move {
    std::size_t cell;
    double x, y;
  };
  std::vector<Move> moves;
  std::string name;
  read_pl(r, [&](std::string_view n, double x, double y, bool) {
    name.assign(n);
    const int id = db.cell_id(name);
    if (id < 0) r.fail("pl references unknown cell '" + name + "'");
    moves.push_back(Move{static_cast<std::size_t>(id), x, y});
  });
  for (const Move& m : moves) {
    db.set_position(m.cell, m.x + db.width(m.cell) * 0.5, m.y + db.height(m.cell) * 0.5);
  }
}

void write_pl(const db::Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  out.precision(12);  // coordinates must survive a round trip
  out << "UCLA pl 1.0\n\n";
  for (std::size_t c = 0; c < db.num_physical(); ++c) {
    const double lx = db.x(c) - db.width(c) * 0.5;
    const double ly = db.y(c) - db.height(c) * 0.5;
    out << db.cell_name(c) << "\t" << lx << "\t" << ly << "\t: N";
    if (db.kind(c) == db::CellKind::kFixed) out << " /FIXED";
    out << "\n";
  }
}

void write_bookshelf(const db::Database& db, const std::string& directory,
                     const std::string& design) {
  const std::string stem = directory + "/" + design;
  {
    std::ofstream aux(stem + ".aux");
    if (!aux) throw std::runtime_error("cannot write aux under '" + directory + "'");
    aux << "RowBasedPlacement : " << design << ".nodes " << design << ".nets "
        << design << ".wts " << design << ".pl " << design << ".scl\n";
  }
  {
    std::ofstream out(stem + ".nodes");
    out.precision(12);
    out << "UCLA nodes 1.0\n\n";
    out << "NumNodes : " << db.num_physical() << "\n";
    out << "NumTerminals : " << db.num_fixed() << "\n";
    for (std::size_t c = 0; c < db.num_physical(); ++c) {
      out << "\t" << db.cell_name(c) << "\t" << db.width(c) << "\t" << db.height(c);
      if (db.kind(c) == db::CellKind::kFixed) out << "\tterminal";
      out << "\n";
    }
  }
  {
    std::ofstream out(stem + ".nets");
    out.precision(12);
    out << "UCLA nets 1.0\n\n";
    out << "NumNets : " << db.num_nets() << "\n";
    out << "NumPins : " << db.num_pins() << "\n";
    for (std::size_t e = 0; e < db.num_nets(); ++e) {
      out << "NetDegree : " << db.net_degree(e) << "  " << db.net_name(e) << "\n";
      for (std::size_t p = db.net_pin_start(e); p < db.net_pin_start(e + 1); ++p) {
        out << "\t" << db.cell_name(db.pin_cell(p)) << "\tI : " << db.pin_offset_x(p)
            << "\t" << db.pin_offset_y(p) << "\n";
      }
    }
  }
  {
    std::ofstream out(stem + ".wts");
    out << "UCLA wts 1.0\n\n";
    for (std::size_t e = 0; e < db.num_nets(); ++e) {
      out << db.net_name(e) << "\t" << db.net_weight(e) << "\n";
    }
  }
  write_pl(db, stem + ".pl");
  {
    std::ofstream out(stem + ".scl");
    out.precision(12);
    out << "UCLA scl 1.0\n\n";
    out << "NumRows : " << db.rows().size() << "\n";
    for (const db::Row& row : db.rows()) {
      out << "CoreRow Horizontal\n";
      out << "  Coordinate    : " << row.ly << "\n";
      out << "  Height        : " << row.height << "\n";
      out << "  Sitewidth     : " << row.site_width << "\n";
      out << "  Sitespacing   : " << row.site_width << "\n";
      out << "  SubrowOrigin  : " << row.lx << "  NumSites : " << row.num_sites << "\n";
      out << "End\n";
    }
  }
}

}  // namespace xplace::io
