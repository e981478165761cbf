#include "characterize/serialize.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/registry.hpp"
#include "support/bounded.hpp"
#include "support/budget.hpp"
#include "support/diagnostic.hpp"
#include "support/durable_io.hpp"

namespace prox::characterize {

namespace {

constexpr const char* kMagic = "proxdelay-model";
// The one accepted version.  Version 3 ends with a "crc32 <8hex>" integrity
// line; versions 1 and 2 had no checksum, so they are rejected: a flipped
// version digit must not switch the check off.
constexpr int kVersion = 3;

constexpr const char* kSite = "characterize.serialize";

// Ingestion ceilings (see support/bounded.hpp for the threat model).  The
// largest legitimate axis this repo characterizes has a few dozen points, so
// 4096 per axis is orders of magnitude of headroom while capping a single
// declared table at 4096^3 cells -- which the per-table cell cap and the
// input-derived allocation budget then shrink to something proportional to
// the actual file size.
constexpr std::size_t kMaxAxisPoints = 4096;
constexpr std::size_t kMaxTableCells = 1u << 22;  // 4M doubles = 32 MiB
constexpr std::size_t kMaxTokenBytes = 1u << 20;
constexpr std::size_t kMaxModelBytes = 64u << 20;

/// CRC-32 over the *token stream*: each whitespace-delimited token's bytes
/// followed by a single '\n' separator.  Tokenizing first makes the checksum
/// independent of whitespace layout, so it survives any reformatting that
/// preserves the token sequence -- exactly what the parser is sensitive to.
std::uint32_t tokenStreamCrc(std::string_view text) {
  std::uint32_t crc = support::kCrc32Init;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i >= text.size()) break;
    const std::size_t begin = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    crc = support::crc32Update(crc, text.data() + begin, i - begin);
    static constexpr char kSep = '\n';
    crc = support::crc32Update(crc, &kSep, 1);
  }
  return support::crc32Final(crc);
}

char edgeChar(wave::Edge e) { return e == wave::Edge::Rising ? 'R' : 'F'; }

/// Whitespace-token reader over the .prox stream that tracks 1-based line
/// numbers so every parse diagnostic can point at its source line.
class Reader {
 public:
  /// @p budget, when non-null, is charged for every container the caller
  /// allocates from parsed counts (input-size-derived cap).
  explicit Reader(std::istream& is, support::AllocationBudget* budget = nullptr)
      : is_(is), budget_(budget) {}

  /// Line of the most recently returned token.
  int line() const { return lastLine_; }

  support::AllocationBudget* budget() const { return budget_; }

  [[noreturn]] void fail(const std::string& msg) const {
    PROX_OBS_COUNT("characterize.serialize.parse_errors", 1);
    throw support::DiagnosticError(
        support::makeDiagnostic(support::StatusCode::ParseError,
                                "loadGateModel: " + msg)
            .withSite(kSite)
            .withLine(lastLine_));
  }

  /// Next token; fails with a typed truncation diagnostic at end of input.
  std::string next(const char* what) {
    std::string t = rawNext();
    if (t.empty()) fail(std::string("unexpected end of file reading ") + what);
    return t;
  }

  /// Next token without consuming it; empty at end of input.
  const std::string& peek() {
    if (!havePending_) {
      const int before = lastLine_;
      pending_ = rawNext();
      pendingLine_ = lastLine_;
      lastLine_ = before;
      havePending_ = true;
    }
    return pending_;
  }

  /// Consumes the next token and fails unless it equals @p tag.
  void expect(const char* tag) {
    const std::string t = next(tag);
    if (t != tag) {
      fail(std::string("expected '") + tag + "', got '" + t + "'");
    }
  }

  double number(const char* what) {
    const std::string t = next(what);
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end != t.c_str() + t.size() || errno == ERANGE) {
      fail(std::string("malformed number '") + t + "' in " + what);
    }
    return v;
  }

  /// A number that must be finite (grids, table entries, device params).
  double finiteNumber(const char* what) {
    const double v = number(what);
    if (!std::isfinite(v)) {
      fail(std::string("non-finite value in ") + what);
    }
    return v;
  }

  long integer(const char* what) {
    const std::string t = next(what);
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(t.c_str(), &end, 10);
    if (end != t.c_str() + t.size() || errno == ERANGE) {
      fail(std::string("malformed integer '") + t + "' in " + what);
    }
    return v;
  }

  std::size_t count(const char* what, std::size_t cap = kMaxTableCells) {
    const long v = integer(what);
    if (v < 0) {
      fail(std::string("negative count in ") + what);
    }
    if (static_cast<std::size_t>(v) > cap) {
      PROX_OBS_COUNT("characterize.serialize.cap_rejections", 1);
      fail(std::string("count ") + std::to_string(v) + " in " + what +
           " exceeds ceiling " + std::to_string(cap));
    }
    return static_cast<std::size_t>(v);
  }

  /// Token-stream CRC over every token *produced from the stream* so far
  /// (tokens sitting in the peek cache are already included).  The version-3
  /// verifier snapshots this immediately after consuming "end", before the
  /// trailing crc32 tokens are read.
  std::uint32_t crc() const { return support::crc32Final(crcAccum_); }

 private:
  std::string rawNext() {
    if (havePending_) {
      havePending_ = false;
      lastLine_ = pendingLine_;
      return std::move(pending_);
    }
    std::string t;
    int c;
    while ((c = is_.get()) != EOF) {
      if (c == '\n') {
        ++line_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      break;
    }
    if (c == EOF) {
      lastLine_ = line_;
      return t;
    }
    lastLine_ = line_;
    t.push_back(static_cast<char>(c));
    while ((c = is_.get()) != EOF &&
           !std::isspace(static_cast<unsigned char>(c))) {
      if (t.size() >= kMaxTokenBytes) {
        PROX_OBS_COUNT("characterize.serialize.parse_errors", 1);
        support::failResource(
            kSite, "loadGateModel: token exceeds " +
                       std::to_string(kMaxTokenBytes) + " bytes",
            lastLine_);
      }
      t.push_back(static_cast<char>(c));
    }
    if (c == '\n') ++line_;
    crcAccum_ = support::crc32Update(crcAccum_, t.data(), t.size());
    static constexpr char kSep = '\n';
    crcAccum_ = support::crc32Update(crcAccum_, &kSep, 1);
    return t;
  }

  std::istream& is_;
  support::AllocationBudget* budget_ = nullptr;
  int line_ = 1;      ///< line the read cursor is on
  int lastLine_ = 1;  ///< line of the last returned token
  std::string pending_;
  int pendingLine_ = 1;
  bool havePending_ = false;
  std::uint32_t crcAccum_ = support::kCrc32Init;
};

wave::Edge parseEdge(Reader& r) {
  const std::string s = r.next("edge tag");
  if (s == "R") return wave::Edge::Rising;
  if (s == "F") return wave::Edge::Falling;
  r.fail("bad edge tag '" + s + "'");
}

std::string gateTag(cells::GateType t) {
  switch (t) {
    case cells::GateType::Inverter: return "INV";
    case cells::GateType::Nand: return "NAND";
    case cells::GateType::Nor: return "NOR";
    case cells::GateType::Complex: return "COMPLEX";
  }
  return "?";
}

cells::GateType parseGateTag(Reader& r, const std::string& s) {
  if (s == "INV") return cells::GateType::Inverter;
  if (s == "NAND") return cells::GateType::Nand;
  if (s == "NOR") return cells::GateType::Nor;
  if (s == "COMPLEX") return cells::GateType::Complex;
  r.fail("bad gate tag '" + s + "'");
}

void writeMos(std::ostream& os, const char* tag, const spice::MosfetParams& p) {
  os << tag << ' ' << p.kp << ' ' << p.vt0 << ' ' << p.lambda << ' ' << p.gamma
     << ' ' << p.phi << ' ' << p.w << ' ' << p.l << ' '
     << (p.equation == spice::MosEquation::AlphaPower ? 14 : 1) << ' '
     << p.alpha << ' ' << p.pc << ' ' << p.pv << '\n';
}

void readMos(Reader& r, const char* tag, bool nmos, spice::MosfetParams* p) {
  r.expect(tag);
  p->nmos = nmos;
  p->kp = r.finiteNumber(tag);
  p->vt0 = r.finiteNumber(tag);
  p->lambda = r.finiteNumber(tag);
  p->gamma = r.finiteNumber(tag);
  p->phi = r.finiteNumber(tag);
  p->w = r.finiteNumber(tag);
  p->l = r.finiteNumber(tag);
  const long level = r.integer(tag);
  p->alpha = r.finiteNumber(tag);
  p->pc = r.finiteNumber(tag);
  p->pv = r.finiteNumber(tag);
  p->equation = level == 14 ? spice::MosEquation::AlphaPower
                            : spice::MosEquation::Level1;
}

void writeVector(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  for (double x : v) os << ' ' << x;
  os << '\n';
}

std::vector<double> readVector(Reader& r, const char* what,
                               std::size_t cap = kMaxTableCells) {
  const std::size_t n = r.count(what, cap);
  // Charge the declared size against the input-derived allocation budget
  // *before* resizing: a short hostile file cannot declare its way into a
  // multi-GB allocation.
  if (support::AllocationBudget* b = r.budget()) {
    b->chargeItems(n, sizeof(double), what, r.line());
  }
  std::vector<double> v(n);
  for (double& x : v) x = r.finiteNumber(what);
  return v;
}

/// A vector that must additionally be a strictly ascending grid axis no
/// longer than kMaxAxisPoints.
std::vector<double> readGrid(Reader& r, const char* what) {
  std::vector<double> v = readVector(r, what, kMaxAxisPoints);
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (!(v[i] > v[i - 1])) {
      r.fail(std::string(what) + " not strictly ascending");
    }
  }
  return v;
}

void writeDualTable2(std::ostream& os, const model::DualTable& t) {
  writeVector(os, t.u);
  writeVector(os, t.v);
  writeVector(os, t.w);
  writeVector(os, t.ratio);
  const std::size_t healed = t.healedCount();
  if (healed > 0) {
    os << "healed " << healed;
    for (std::size_t i = 0; i < t.healed.size(); ++i) {
      if (t.healed[i] != 0) os << ' ' << i;
    }
    os << '\n';
  }
}

void writeDualTable(std::ostream& os, const char* tag, int pin, wave::Edge e,
                    const model::DualTable& t) {
  os << tag << ' ' << pin << ' ' << edgeChar(e) << '\n';
  writeDualTable2(os, t);
}

model::DualTable readDualTable(Reader& r) {
  support::budgetChargeTables(1, kSite);
  support::budgetCheckRss(kSite);
  model::DualTable t;
  t.u = readGrid(r, "dual table u grid");
  t.v = readGrid(r, "dual table v grid");
  t.w = readGrid(r, "dual table w grid");
  t.ratio = readVector(r, "dual table ratio");
  if (t.ratio.size() != t.u.size() * t.v.size() * t.w.size()) {
    r.fail("dual table size mismatch");
  }
  if (r.peek() == "healed") {
    r.next("healed tag");
    const std::size_t n = r.count("healed point count", t.ratio.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = r.count("healed point index", t.ratio.size());
      if (idx >= t.ratio.size()) r.fail("healed point index out of range");
      const std::size_t iw = idx % t.w.size();
      const std::size_t iv = (idx / t.w.size()) % t.v.size();
      const std::size_t iu = idx / (t.w.size() * t.v.size());
      t.markHealed(iu, iv, iw);
    }
  }
  return t;
}

void writeModelBody(const CharacterizedGate& g, std::ostream& os) {
  os << std::setprecision(17);
  const cells::CellSpec& s = g.gate.spec;
  os << kMagic << ' ' << kVersion << '\n';
  os << "gate " << gateTag(s.type) << ' ' << s.fanin << '\n';
  if (g.gate.complex) {
    os << "pullnet " << g.gate.complex->pulldown.toString() << '\n';
  }
  os << "sizing " << s.wn << ' ' << s.wp << ' ' << s.loadCap << '\n';
  os << "vdd " << s.tech.vdd << '\n';
  writeMos(os, "nmos", s.tech.nmos);
  writeMos(os, "pmos", s.tech.pmos);
  os << "caps " << s.tech.coxPerArea << ' ' << s.tech.overlapCapPerWidth << ' '
     << s.tech.junctionCapPerWidth << '\n';
  os << "thresholds " << g.gate.thresholds.vil << ' ' << g.gate.thresholds.vih
     << '\n';

  const int n = g.pinCount();
  for (int pin = 0; pin < n; ++pin) {
    for (wave::Edge e : {wave::Edge::Rising, wave::Edge::Falling}) {
      const model::SingleInputModel& m = g.singles->at(pin, e);
      os << "single " << pin << ' ' << edgeChar(e) << ' ' << m.loadCap() << ' '
         << m.strengthK() << ' ' << m.vdd() << ' ' << m.table().size() << '\n';
      for (const auto& row : m.table()) {
        os << row.tau << ' ' << row.delay << ' ' << row.transition << '\n';
      }
    }
  }
  for (int pin = 0; pin < n; ++pin) {
    for (wave::Edge e : {wave::Edge::Rising, wave::Edge::Falling}) {
      writeDualTable(os, "dualdelay", pin, e, g.dual->delayTable(pin, e));
      writeDualTable(os, "dualtrans", pin, e, g.dual->transitionTable(pin, e));
    }
  }
  for (const auto& [ref, other, e] : g.dual->pairKeys()) {
    os << "pairdelay " << ref << ' ' << other << ' ' << edgeChar(e) << '\n';
    writeDualTable2(os, g.dual->pairDelayTable(ref, other, e));
    os << "pairtrans " << ref << ' ' << other << ' ' << edgeChar(e) << '\n';
    writeDualTable2(os, g.dual->pairTransitionTable(ref, other, e));
  }
  os << "correction\n";
  writeVector(os, g.correction.delayErrorRising);
  writeVector(os, g.correction.delayErrorFalling);
  writeVector(os, g.correction.transitionErrorRising);
  writeVector(os, g.correction.transitionErrorFalling);
  os << "end\n";
}

}  // namespace

void saveGateModel(const CharacterizedGate& g, std::ostream& os) {
  // The body is rendered once and checksummed as a token stream; the
  // trailing crc32 line lets the loader distinguish a truncated or
  // bit-flipped file from a well-formed one even when the damage happens to
  // parse (e.g. a corrupted digit inside a ratio table).
  std::ostringstream body;
  writeModelBody(g, body);
  const std::string text = body.str();
  char crcHex[12];
  std::snprintf(crcHex, sizeof(crcHex), "%08x",
                static_cast<unsigned>(tokenStreamCrc(text)));
  os << text << "crc32 " << crcHex << '\n';
}

void saveGateModel(const CharacterizedGate& g, const std::string& path) {
  // Atomic commit: the model lands under its final name complete or not at
  // all, so a crash (or disk-full failure) mid-save can never leave a torn
  // .prox where a previous good one stood.
  support::writeFileAtomic(path,
                           [&](std::ostream& os) { saveGateModel(g, os); });
}

CharacterizedGate loadGateModel(std::istream& is) {
  // Slurp once through the bounded reader: the whole-input size cap applies
  // before any parsing, and the input size seeds the allocation budget that
  // every declared count below is charged against.
  const std::string text = support::readStreamBounded(is, kMaxModelBytes, kSite);
  support::AllocationBudget budget(kSite, text.size());
  std::istringstream in(text);
  Reader r(in, &budget);
  const std::string magic = r.next("header magic");
  const long version = r.integer("header version");
  if (magic != kMagic || version != kVersion) {
    r.fail("bad header");
  }

  CharacterizedGate g;
  cells::CellSpec& s = g.gate.spec;

  r.expect("gate");
  const std::string gateWord = r.next("gate tag");
  s.type = parseGateTag(r, gateWord);
  s.fanin = static_cast<int>(r.integer("gate fanin"));
  // The fanin drives every per-pin loop below; an absurd value is corruption,
  // not a gate.  64 inputs is far beyond anything this library characterizes.
  constexpr int kMaxFanin = 64;
  if (s.fanin < 1 || s.fanin > kMaxFanin) {
    r.fail("gate fanin " + std::to_string(s.fanin) + " outside [1, " +
           std::to_string(kMaxFanin) + "]");
  }

  std::string pullExprText;
  if (s.type == cells::GateType::Complex) {
    r.expect("pullnet");
    pullExprText = r.next("pullnet expression");
  }

  r.expect("sizing");
  s.wn = r.finiteNumber("sizing");
  s.wp = r.finiteNumber("sizing");
  s.loadCap = r.finiteNumber("sizing");

  r.expect("vdd");
  s.tech.vdd = r.finiteNumber("vdd");
  readMos(r, "nmos", true, &s.tech.nmos);
  readMos(r, "pmos", false, &s.tech.pmos);
  r.expect("caps");
  s.tech.coxPerArea = r.finiteNumber("caps");
  s.tech.overlapCapPerWidth = r.finiteNumber("caps");
  s.tech.junctionCapPerWidth = r.finiteNumber("caps");

  r.expect("thresholds");
  g.gate.thresholds.vil = r.finiteNumber("thresholds");
  g.gate.thresholds.vih = r.finiteNumber("thresholds");

  if (s.type == cells::GateType::Complex) {
    cells::ComplexCellSpec cs;
    try {
      cs.pulldown = cells::PullExpr::parse(pullExprText);
    } catch (const std::exception& e) {
      r.fail(std::string("bad pullnet expression: ") + e.what());
    }
    cs.tech = s.tech;
    cs.wn = s.wn;
    cs.wp = s.wp;
    cs.loadCap = s.loadCap;
    if (cs.pinCount() != s.fanin) {
      r.fail("pullnet pin count mismatch");
    }
    g.gate.complex = cs;
  }

  g.singles = std::make_unique<model::SingleInputModelSet>();
  const int n = g.pinCount();
  std::set<std::string> seenSections;
  const auto requireUnique = [&](const std::string& key) {
    if (!seenSections.insert(key).second) {
      r.fail("duplicate section '" + key + "'");
    }
  };
  const auto requirePin = [&](int pin, const char* what) {
    if (pin < 0 || pin >= n) {
      r.fail(std::string(what) + " pin " + std::to_string(pin) +
             " outside [0, " + std::to_string(n) + ")");
    }
  };
  for (int i = 0; i < n * 2; ++i) {
    r.expect("single");
    support::budgetChargeTables(1, kSite);
    const int pin = static_cast<int>(r.integer("single pin"));
    requirePin(pin, "single table");
    const wave::Edge edge = parseEdge(r);
    requireUnique(std::string("single ") + std::to_string(pin) + ' ' +
                  edgeChar(edge));
    const double loadCap = r.finiteNumber("single table");
    const double k = r.finiteNumber("single table");
    const double vdd = r.finiteNumber("single table");
    const std::size_t rows = r.count("single table rows");
    if (support::AllocationBudget* b = r.budget()) {
      b->chargeItems(rows, sizeof(model::SingleInputModel::Sample),
                     "single table rows", r.line());
    }
    std::vector<model::SingleInputModel::Sample> table(rows);
    for (auto& row : table) {
      row.tau = r.finiteNumber("single table row");
      row.delay = r.finiteNumber("single table row");
      row.transition = r.finiteNumber("single table row");
    }
    g.singles->set(
        model::SingleInputModel(pin, edge, std::move(table), loadCap, k, vdd));
  }

  g.dual = std::make_unique<model::TabulatedDualInputModel>(*g.singles);
  // Tag-driven section: per-reference tables, optional pair tables, then the
  // correction block terminates the loop.
  while (true) {
    const std::string word = r.next("dual section tag");
    if (word == "correction") break;
    if (word == "dualdelay" || word == "dualtrans") {
      const int pin = static_cast<int>(r.integer("dual table pin"));
      requirePin(pin, word.c_str());
      const wave::Edge edge = parseEdge(r);
      requireUnique(word + ' ' + std::to_string(pin) + ' ' + edgeChar(edge));
      if (word == "dualdelay") {
        g.dual->setDelayTable(pin, edge, readDualTable(r));
      } else {
        g.dual->setTransitionTable(pin, edge, readDualTable(r));
      }
    } else if (word == "pairdelay" || word == "pairtrans") {
      const int ref = static_cast<int>(r.integer("pair table ref pin"));
      requirePin(ref, word.c_str());
      const int other = static_cast<int>(r.integer("pair table other pin"));
      requirePin(other, word.c_str());
      const wave::Edge edge = parseEdge(r);
      requireUnique(word + ' ' + std::to_string(ref) + ' ' +
                    std::to_string(other) + ' ' + edgeChar(edge));
      if (word == "pairdelay") {
        g.dual->setPairDelayTable(ref, other, edge, readDualTable(r));
      } else {
        g.dual->setPairTransitionTable(ref, other, edge, readDualTable(r));
      }
    } else {
      r.fail("unexpected section '" + word + "'");
    }
  }
  g.correction.delayErrorRising = readVector(r, "correction");
  g.correction.delayErrorFalling = readVector(r, "correction");
  g.correction.transitionErrorRising = readVector(r, "correction");
  g.correction.transitionErrorFalling = readVector(r, "correction");

  r.expect("end");
  // Snapshot before touching the crc32 tokens: the stored checksum covers
  // every token up to and including "end".
  const std::uint32_t computed = r.crc();
  r.expect("crc32");
  const std::string stored = r.next("crc32 value");
  errno = 0;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(stored.c_str(), &end, 16);
  if (end != stored.c_str() + stored.size() || stored.size() != 8 ||
      errno == ERANGE) {
    r.fail("malformed crc32 value '" + stored + "'");
  }
  if (static_cast<std::uint32_t>(parsed) != computed) {
    PROX_OBS_COUNT("characterize.serialize.crc_mismatches", 1);
    r.fail("crc32 mismatch: file is corrupt or was hand-edited");
  }
  return g;
}

CharacterizedGate loadGateModelFile(const std::string& path) {
  const std::string text = support::readFileBounded(path, kMaxModelBytes, kSite);
  std::istringstream in(text);
  return loadGateModel(in);
}

}  // namespace prox::characterize
