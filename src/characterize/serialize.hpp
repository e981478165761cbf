#pragma once
// Text serialization of a CharacterizedGate package (".prox" files).
// A characterized library cell can be written once and reloaded by timing
// tools without any access to the circuit simulator.

#include <iosfwd>
#include <string>

#include "characterize/characterize.hpp"

namespace prox::characterize {

/// Writes the complete package (cell spec, technology, thresholds, single
/// and dual tables, corrections) to @p os, ending with a "crc32" integrity
/// line over the token stream (format version 3).
void saveGateModel(const CharacterizedGate& g, std::ostream& os);

/// Writes to @p path through the atomic-commit writer (temp file + fsync +
/// rename): the model appears under its final name complete or not at all.
/// Throws support::DiagnosticError (IoError) on any filesystem failure.
void saveGateModel(const CharacterizedGate& g, const std::string& path);

/// Reads a package previously written by saveGateModel (format version 3
/// only, whose trailing crc32 line is always verified; the unchecksummed
/// versions 1 and 2 are rejected as a bad header).  Throws
/// support::DiagnosticError -- a std::runtime_error whose Diagnostic carries
/// code ParseError and the 1-based line of the offending token -- on
/// truncated input, malformed or non-finite numbers, non-ascending grid
/// axes, duplicate table/section declarations, out-of-range pins or fanin,
/// unknown section tags, bad pull-network expressions, a missing crc32
/// line, or a checksum mismatch.  Ingestion is bounded (code ResourceExhausted): the raw input,
/// individual tokens, grid axis lengths, and total table memory (a multiple
/// of the input size) are all capped, and tables are charged against any
/// active support::ResourceBudget.
CharacterizedGate loadGateModel(std::istream& is);

/// Reads from @p path.
CharacterizedGate loadGateModelFile(const std::string& path);

}  // namespace prox::characterize
