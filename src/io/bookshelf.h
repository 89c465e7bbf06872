// GSRC Bookshelf format reader/writer (the ISPD 2005 contest interchange
// format: .aux, .nodes, .nets, .wts, .pl, .scl).
//
// The reader accepts the conventions used by the ISPD 2005 suite:
//   * .nodes   "name width height [terminal]"
//   * .nets    "NetDegree : k [name]" followed by "cell I/O/B : ox oy" pin
//              lines with offsets measured from the *cell center*
//   * .pl      "name x y : orient [/FIXED]" with (x, y) the *lower-left* corner;
//              only the tokens after "name x y" are flags
//   * .scl     CoreRow blocks
// Comments (#...) and blank lines are ignored everywhere. Numbers are finite
// decimals (std::from_chars, an optional leading '+'); counts from the file
// are range-checked and never size an allocation (DESIGN.md §17).
//
// The writer emits files the reader round-trips exactly (modulo float
// formatting), so placements can be exchanged with external bookshelf tools.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "db/database.h"
#include "db/design_snapshot.h"

namespace xplace::io {

/// Parse a design given the path to its .aux file. Throws std::runtime_error
/// naming the file (and line, where there is one) on any malformed input.
/// The returned database is finalized (fillers not inserted).
db::Database read_bookshelf_aux(const std::string& aux_path);

/// FNV-1a content hash over the .aux file's bytes plus the bytes of every
/// component file it references (.nodes/.nets/.pl/.scl/.wts) — the design
/// store's cache key. Throws when the aux or a required component is
/// unreadable; a referenced-but-missing .wts is tolerated like the parser
/// tolerates it.
std::uint64_t hash_bookshelf_aux(const std::string& aux_path);

/// Parse + hash in one step: an immutable content-addressed snapshot that can
/// back many concurrent runs copy-on-write (see db::DesignSnapshot). Each file
/// is read once, and content_hash is hash_bookshelf_aux's FNV-1a over exactly
/// the bytes parsed.
std::shared_ptr<const db::DesignSnapshot> read_bookshelf_snapshot(
    const std::string& aux_path);

/// Write a complete bookshelf design (aux/nodes/nets/wts/pl/scl) under
/// `directory` with file stem `design`.
void write_bookshelf(const db::Database& db, const std::string& directory,
                     const std::string& design);

/// Write only a .pl file with the database's current positions (the usual way
/// to hand a GP/LG/DP result to downstream tools).
void write_pl(const db::Database& db, const std::string& path);

/// Overwrite positions in `db` from a .pl file (cells matched by name;
/// an unknown name is a positioned error, and a file that fails changes no
/// position).
void read_pl_into(db::Database& db, const std::string& path);

}  // namespace xplace::io
