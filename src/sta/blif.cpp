#include "sta/blif.hpp"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <span>
#include <utility>

#include "characterize/analytic.hpp"
#include "obs/registry.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"

namespace prox::sta {

namespace {

constexpr const char* kSite = "sta.blif";

using characterize::CharacterizedGate;
using support::AllocationBudget;
using support::failParse;
using support::failResource;

std::pair<int, int> cellKey(cells::GateType type, int fanin) {
  return {static_cast<int>(type), fanin};
}

// --- Two passes over the text -----------------------------------------------
// The reader walks the in-memory text twice, with one lexer.  Pass 1 runs
// every grammar check, cap and token charge in file order and keeps only
// what the build needs before its first cover: the .inputs/.outputs/.latch
// declarations and the counts Netlist::reserve takes.  Pass 2 re-reads the
// validated text and builds each cover when its card closes, from one
// reused buffer.  So card order never matters (".inputs" after the gates
// that read them, several ".outputs" cards), every lex error precedes every
// build error, and apart from the declarations nothing the reader keeps
// grows with the number of tokens, rows or covers.  Every token is a view
// into the input text, which outlives the parse.

using Tokens = std::span<const std::string_view>;

/// The lexer both passes run.  Splits @p text into logical lines (comments
/// stripped, '\'-continuations joined, tokens split on blanks) and calls
/// onLine(line, tokens) for each non-empty one, where line is the physical
/// line of its first token; stops early when onLine returns false.  Every
/// token is held to the token-size cap and, when @p budget is given,
/// charged to it.  Returns the last physical line read.
template <class OnLine>
int lexLogicalLines(std::string_view text, const BlifOptions& options,
                    AllocationBudget* budget, OnLine&& onLine) {
  std::vector<std::string_view> tokens;  // one logical line, reused
  int logicalLine = 0;

  std::size_t pos = 0;
  int physLine = 0;
  bool done = false;
  while (!done) {
    ++physLine;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = text.size();
      done = true;
    }
    const char* p = text.data() + pos;
    const char* const end = text.data() + eol;
    pos = eol + 1;

    // Split on blanks up to a '#', then drop the line's trailing CRs (a
    // token of CRs only is trailing blank space) and a final '\'.
    const std::size_t first = tokens.size();
    while (p != end && *p != '#') {
      if (*p == ' ' || *p == '\t') {
        ++p;
        continue;
      }
      const char* start = p;
      while (p != end && *p != ' ' && *p != '\t' && *p != '#') ++p;
      tokens.emplace_back(start, static_cast<std::size_t>(p - start));
    }
    while (tokens.size() > first) {
      std::string_view& last = tokens.back();
      while (!last.empty() && last.back() == '\r') last.remove_suffix(1);
      if (!last.empty()) break;
      tokens.pop_back();
    }
    bool continued = false;
    if (tokens.size() > first && tokens.back().back() == '\\') {
      continued = true;
      tokens.back().remove_suffix(1);
      if (tokens.back().empty()) tokens.pop_back();
    }
    for (std::size_t i = first; i < tokens.size(); ++i) {
      if (tokens[i].size() > options.limits.maxTokenBytes) {
        failResource(kSite, "token exceeds size cap", physLine);
      }
      if (budget != nullptr) {
        budget->charge(tokens[i].size() + 32, "token", physLine);
      }
    }
    if (first == 0 && !tokens.empty()) logicalLine = physLine;

    if (continued) continue;  // logical line extends onto the next one
    if (!tokens.empty() && !onLine(logicalLine, Tokens(tokens))) break;
    tokens.clear();
  }
  return physLine;
}

/// Checks one row of a cover with fanin @p k.
void checkCoverRow(std::size_t k, int line, Tokens tokens) {
  if (k == 0) {
    if (tokens.size() != 1 || tokens[0].size() != 1 ||
        (tokens[0][0] != '0' && tokens[0][0] != '1')) {
      failParse(kSite, "constant cover row must be a single '0' or '1'", line);
    }
    return;
  }
  if (tokens.size() != 2) {
    failParse(kSite, "cover row must be <plane> <output>", line);
  }
  if (tokens[0].size() != k) {
    failParse(kSite,
              "cover row width " + std::to_string(tokens[0].size()) +
                  " does not match fanin " + std::to_string(k),
              line);
  }
  for (const char c : tokens[0]) {
    if (c != '0' && c != '1' && c != '-') {
      failParse(kSite, std::string("invalid cover-plane character '") + c + "'",
                line);
    }
  }
  if (tokens[1].size() != 1 || (tokens[1][0] != '0' && tokens[1][0] != '1')) {
    failParse(kSite, "cover output must be '0' or '1'", line);
  }
}

struct LineNet {
  int line = 0;
  std::string_view net;
};

/// What pass 1 keeps: the declarations the build adds before any cover, and
/// the counts that size the netlist.
struct Cards {
  std::string_view modelName;
  bool sawModel = false;
  bool ended = false;
  std::vector<LineNet> inputs;
  std::vector<LineNet> outputs;
  std::vector<LineNet> latchOutputs;
  std::size_t tokens = 0;
  std::size_t covers = 0;  ///< .names cards
  std::size_t gates = 0;   ///< .names cards with inputs
  std::size_t pins = 0;    ///< the fanins of those cards
};

constexpr std::size_t kNoCover = static_cast<std::size_t>(-1);

/// Checks one logical line against the card grammar and records it in
/// @p out.  @p openFanin is the fanin of the .names card whose rows are
/// being read, or kNoCover.
void checkLogicalLine(Cards* out, std::size_t* openFanin, int line,
                      Tokens tokens, const BlifOptions& options) {
  const std::string_view head = tokens[0];
  if (head[0] != '.') {
    if (*openFanin == kNoCover) {
      failParse(kSite, "cover row outside a .names card", line);
    }
    checkCoverRow(*openFanin, line, tokens);
    return;
  }
  *openFanin = kNoCover;
  if (head == ".model") {
    if (out->sawModel) failParse(kSite, "duplicate .model", line);
    if (tokens.size() != 2) failParse(kSite, ".model: expected one name", line);
    out->sawModel = true;
    out->modelName = tokens[1];
  } else if (head == ".inputs") {
    for (const std::string_view net : tokens.subspan(1)) {
      out->inputs.push_back({line, net});
    }
  } else if (head == ".outputs") {
    for (const std::string_view net : tokens.subspan(1)) {
      out->outputs.push_back({line, net});
    }
  } else if (head == ".names") {
    if (tokens.size() < 2) failParse(kSite, ".names: missing output net", line);
    const std::size_t fanin = tokens.size() - 2;
    if (fanin > options.maxFanin) {
      failResource(kSite,
                   ".names fanin " + std::to_string(fanin) + " exceeds cap " +
                       std::to_string(options.maxFanin),
                   line);
    }
    ++out->covers;
    if (fanin != 0) {
      ++out->gates;
      out->pins += fanin;
    }
    *openFanin = fanin;
  } else if (head == ".latch") {
    if (!options.allowLatches) {
      failParse(kSite, ".latch not allowed by reader options", line);
    }
    // .latch <input> <output> [<type> <control>] [<init-val>]
    const std::size_t operands = tokens.size() - 1;
    if (operands < 2 || operands > 5) {
      failParse(kSite, ".latch: expected 2..5 operands", line);
    }
    out->latchOutputs.push_back({line, tokens[2]});
  } else if (head == ".end") {
    out->ended = true;
  } else {
    failParse(kSite, "unsupported construct '" + std::string(head) + "'",
              line);
  }
}

/// Pass 1.  Lexes the whole text, junk after .end included, so every token
/// is capped and charged.
Cards lexCards(std::string_view text, const BlifOptions& options,
               AllocationBudget* budget) {
  Cards out;
  std::size_t openFanin = kNoCover;
  const int lastLine =
      lexLogicalLines(text, options, budget, [&](int line, Tokens tokens) {
        if (!out.ended) {
          out.tokens += tokens.size();
          checkLogicalLine(&out, &openFanin, line, tokens, options);
        }
        return true;
      });
  if (!out.ended) {
    failParse(kSite, "truncated input: missing .end", lastLine);
  }
  return out;
}

// --- Cover classification ---------------------------------------------------

struct Row {
  int line = 0;
  std::string_view plane;  ///< k characters over {'0','1','-'}; empty if k == 0
  char out = '0';
};

/// The .names card pass 2 is reading: one buffer, reused for every card.
struct Cover {
  int line = 0;
  std::vector<std::string_view> nets;  ///< inputs..., output last
  std::vector<Row> rows;

  std::size_t fanin() const { return nets.size() - 1; }
};

/// Maps a validated cover to the characterized cell type it denotes, or
/// fails with a typed ParseError.  Recognized shapes (k = fanin):
///   INV  (k=1):  "0 1" (on-set) or "1 0" (off-set)
///   NAND: single all-'1' row -> '0', or k rows each with exactly one '0'
///         (rest '-') -> '1' covering every position once
///   NOR:  single all-'0' row -> '1', or k rows each with exactly one '1'
///         (rest '-') -> '0' covering every position once
/// @p seen is scratch space for the one-hot forms, reused across covers.
cells::GateType classifyCover(const Cover& cover, std::vector<char>* seen) {
  const std::size_t k = cover.fanin();
  const std::vector<Row>& rows = cover.rows;
  if (rows.empty()) {
    failParse(kSite, ".names with inputs but no cover rows", cover.line);
  }
  const char out0 = rows[0].out;
  for (const Row& r : rows) {
    if (r.out != out0) {
      failParse(kSite, "cover mixes on-set and off-set rows", r.line);
    }
  }
  const auto allAre = [](std::string_view plane, char c) {
    return std::all_of(plane.begin(), plane.end(),
                       [c](char p) { return p == c; });
  };
  if (k == 1) {
    if (rows.size() == 1 && ((rows[0].plane == "0" && out0 == '1') ||
                             (rows[0].plane == "1" && out0 == '0'))) {
      return cells::GateType::Inverter;
    }
    failParse(kSite,
              "single-input cover is not an inverter (buffers have no "
              "characterized cell)",
              cover.line);
  }
  if (rows.size() == 1) {
    if (out0 == '0' && allAre(rows[0].plane, '1')) return cells::GateType::Nand;
    if (out0 == '1' && allAre(rows[0].plane, '0')) return cells::GateType::Nor;
  }
  // k-row one-hot forms: each row distinguishes exactly one position with
  // @p mark ('-' elsewhere) and every position is distinguished exactly once.
  const auto oneHot = [&](char mark, char outBit) {
    if (rows.size() != k || out0 != outBit) return false;
    seen->assign(k, 0);
    for (const Row& r : rows) {
      int pick = -1;
      for (std::size_t i = 0; i < k; ++i) {
        if (r.plane[i] == mark) {
          if (pick >= 0) return false;
          pick = static_cast<int>(i);
        } else if (r.plane[i] != '-') {
          return false;
        }
      }
      if (pick < 0 || (*seen)[pick] != 0) return false;
      (*seen)[pick] = 1;
    }
    return true;
  };
  if (oneHot('0', '1')) return cells::GateType::Nand;
  if (oneHot('1', '0')) return cells::GateType::Nor;
  failParse(kSite,
            "cover does not denote a characterized INV/NAND/NOR cell",
            cover.line);
}

// --- Netlist construction ---------------------------------------------------

/// Index of the first declaration in @p decls that repeats an earlier one
/// (decls.size() when all are distinct), found with one sort instead of a
/// set of copied names.
std::size_t firstRepeat(const std::vector<LineNet>& decls) {
  std::vector<std::uint32_t> order(decls.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return decls[a].net < decls[b].net;
  });
  std::size_t first = decls.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (decls[order[i]].net == decls[order[i - 1]].net) {
      first = std::min<std::size_t>(first, order[i]);
    }
  }
  return first;
}

/// Builds the netlist from pass 1's @p cards and, in pass 2, from the covers
/// of @p text in file order.
BlifSummary buildNetlist(std::string_view text, const Cards& cards,
                         const BlifOptions& options,
                         const GateLibrary& library, Netlist* netlist,
                         AllocationBudget* budget) {
  if (!cards.sawModel) failParse(kSite, "missing .model", 1);
  BlifSummary summary;
  summary.modelName = cards.modelName;

  // Pre-size the arena for what the cards declare: every net of a
  // well-formed file is an input, a latch output, or a cover's output.
  netlist->reserve(netlist->nodeCount() + cards.gates,
                   netlist->netCount() + cards.inputs.size() +
                       cards.latchOutputs.size() + cards.covers,
                   netlist->arcCount() + cards.pins);

  const std::size_t repeatedInput = firstRepeat(cards.inputs);
  summary.inputs.reserve(cards.inputs.size());
  for (std::size_t i = 0; i < cards.inputs.size(); ++i) {
    const auto [line, net] = cards.inputs[i];
    if (i == repeatedInput) {
      failParse(kSite, "duplicate .inputs net '" + std::string(net) + "'",
                line);
    }
    budget->charge(net.size() + 64, "primary input", line);
    netlist->addPrimaryInput(net);
    summary.inputs.emplace_back(net);
  }
  const std::size_t repeatedOutput = firstRepeat(cards.outputs);
  if (repeatedOutput < cards.outputs.size()) {
    const auto [line, net] = cards.outputs[repeatedOutput];
    failParse(kSite, "duplicate .outputs net '" + std::string(net) + "'",
              line);
  }
  summary.outputs.reserve(cards.outputs.size());
  for (const auto& [line, net] : cards.outputs) {
    summary.outputs.emplace_back(net);
  }

  // Latch outputs become pseudo-primary-inputs: the classic STA cut at
  // register boundaries.  Re-driving a declared input is a hard reject (two
  // different no-event sources for one net is meaningless).
  for (const auto& [line, net] : cards.latchOutputs) {
    if (netlist->isDriven(net)) {
      failParse(kSite,
                ".latch output '" + std::string(net) + "' re-drives a net",
                line);
    }
    budget->charge(net.size() + 64, "latch output", line);
    netlist->addPrimaryInput(net);
    ++summary.latches;
  }

  // Gates.  Instance names are the output net, uniquified against the
  // netlist's instance names when multiple covers drive the same net (that
  // multi-driver defect is recorded by the lenient add for the caller's
  // StructuralPolicy to judge, not decided here).  The add itself claims
  // the name, so each candidate name costs one index probe.
  Cover cover;
  std::vector<char> seen;
  std::string fallback;
  const auto addCover = [&] {
    const std::size_t k = cover.fanin();
    const std::string_view outNet = cover.nets.back();
    if (k == 0) {
      if (cover.rows.size() > 1) {
        failParse(kSite, "constant cover has multiple rows", cover.line);
      }
      if (netlist->isDriven(outNet)) {
        failParse(kSite,
                  "constant re-drives net '" + std::string(outNet) + "'",
                  cover.line);
      }
      budget->charge(outNet.size() + 64, "constant net", cover.line);
      netlist->addPrimaryInput(outNet);
      ++summary.constants;
      return;
    }
    const cells::GateType type = classifyCover(cover, &seen);
    const CharacterizedGate& cell =
        library.require(type, static_cast<int>(k), cover.line);
    budget->chargeItems(k + 1, 48, "instance nets", cover.line);
    const Tokens inputs = Tokens(cover.nets).first(k);
    NodeId node = netlist->tryAddInstanceLenient(outNet, cell, inputs, outNet);
    for (int n = 2; !node.valid(); ++n) {
      fallback.assign(outNet);
      fallback += '#';
      fallback += std::to_string(n);
      node = netlist->tryAddInstanceLenient(fallback, cell, inputs, outNet);
    }
    ++summary.gates;
  };
  // Pass 2.  Pass 1 accepted the text, so every card before .end is well
  // formed and every row is "<plane> <output>" (just "<output>" for a
  // constant) of the open cover; a cover is built when the next card (at
  // the latest, .end) closes it.
  bool coverOpen = false;
  lexLogicalLines(text, options, nullptr, [&](int line, Tokens tokens) {
    const std::string_view head = tokens[0];
    if (head[0] != '.') {
      const std::string_view plane = tokens.size() == 2 ? head : "";
      cover.rows.push_back({line, plane, tokens.back()[0]});
      return true;
    }
    if (coverOpen) addCover();
    coverOpen = head == ".names";
    if (coverOpen) {
      cover.line = line;
      cover.nets.assign(tokens.begin() + 1, tokens.end());
      cover.rows.clear();
    }
    return head != ".end";
  });

  // Every declared output must be driven: an undriven .outputs net would
  // silently vanish from any timing report.
  for (const auto& [line, net] : cards.outputs) {
    if (!netlist->isDriven(net)) {
      failParse(kSite, "undriven .outputs net '" + std::string(net) + "'",
                line);
    }
  }

  PROX_OBS_COUNT("sta.blif.gates", summary.gates);
  PROX_OBS_COUNT("sta.blif.latches", summary.latches);
  return summary;
}

BlifSummary parseText(std::string_view text, const GateLibrary& library,
                      Netlist* netlist, const BlifOptions& options) {
  if (text.size() > options.limits.maxInputBytes) {
    failResource(kSite, "input exceeds size cap");
  }
  PROX_OBS_SCOPED_TIMER("sta.blif.seconds");
  PROX_OBS_SPAN("sta.blif");
  AllocationBudget budget(kSite, text.size(), options.limits);
  Cards cards;
  {
    PROX_OBS_SCOPED_TIMER("sta.blif.lex.seconds");
    PROX_OBS_SPAN("sta.blif.lex");
    cards = lexCards(text, options, &budget);
  }
  PROX_OBS_COUNT("sta.blif.tokens", cards.tokens);
  PROX_OBS_COUNT("sta.blif.covers", cards.covers);
  PROX_OBS_SCOPED_TIMER("sta.blif.build.seconds");
  PROX_OBS_SPAN("sta.blif.build");
  return buildNetlist(text, cards, options, library, netlist, &budget);
}

}  // namespace

// --- GateLibrary ------------------------------------------------------------

void GateLibrary::add(const CharacterizedGate& cell) {
  cells_[cellKey(cell.gate.spec.type, cell.gate.spec.fanin)] = &cell;
}

const CharacterizedGate& GateLibrary::adopt(CharacterizedGate cell) {
  owned_.push_back(std::move(cell));
  const CharacterizedGate& stored = owned_.back();
  cells_[cellKey(stored.gate.spec.type, stored.gate.spec.fanin)] = &stored;
  return stored;
}

const CharacterizedGate* GateLibrary::find(cells::GateType type,
                                           int fanin) const {
  const auto it = cells_.find(cellKey(type, fanin));
  if (it != cells_.end()) return it->second;
  if (!factory_) return nullptr;
  PROX_OBS_SCOPED_TIMER("sta.library.seconds");
  PROX_OBS_SPAN("sta.library");
  std::optional<CharacterizedGate> made = factory_(type, fanin);
  if (!made.has_value()) return nullptr;
  owned_.push_back(std::move(*made));
  const CharacterizedGate& stored = owned_.back();
  cells_[cellKey(type, fanin)] = &stored;
  return &stored;
}

const CharacterizedGate& GateLibrary::require(cells::GateType type, int fanin,
                                              int line) const {
  if (const CharacterizedGate* cell = find(type, fanin)) return *cell;
  throw support::DiagnosticError(
      support::makeDiagnostic(support::StatusCode::TableMissing,
                              "no characterized cell for " +
                                  cells::gateTypeName(type, fanin))
          .withSite(kSite)
          .withLine(line));
}

GateLibrary analyticLibrary(int maxFanin) {
  GateLibrary lib;
  lib.setFactory([maxFanin](cells::GateType type, int fanin)
                     -> std::optional<CharacterizedGate> {
    if (fanin < 1 || fanin > maxFanin) return std::nullopt;
    if (type == cells::GateType::Inverter && fanin != 1) return std::nullopt;
    if (type != cells::GateType::Inverter &&
        type != cells::GateType::Nand && type != cells::GateType::Nor) {
      return std::nullopt;
    }
    cells::CellSpec spec;
    spec.type = type;
    spec.fanin = fanin;
    return characterize::analyticGate(spec);
  });
  return lib;
}

// --- Entry points -----------------------------------------------------------

BlifSummary readBlif(std::istream& is, const GateLibrary& library,
                     Netlist* netlist, const BlifOptions& options) {
  std::string text;
  {
    PROX_OBS_SCOPED_TIMER("sta.blif.read.seconds");
    PROX_OBS_SPAN("sta.blif.read");
    text = support::readStreamBounded(is, options.limits.maxInputBytes, kSite);
  }
  return parseText(text, library, netlist, options);
}

BlifSummary readBlifString(std::string_view text, const GateLibrary& library,
                           Netlist* netlist, const BlifOptions& options) {
  return parseText(text, library, netlist, options);
}

BlifSummary readBlifFile(const std::string& path, const GateLibrary& library,
                         Netlist* netlist, const BlifOptions& options) {
  if (path == "-") return readBlif(std::cin, library, netlist, options);
  std::string text;
  {
    PROX_OBS_SCOPED_TIMER("sta.blif.read.seconds");
    PROX_OBS_SPAN("sta.blif.read");
    text = support::readFileBounded(path, options.limits.maxInputBytes, kSite);
  }
  return parseText(text, library, netlist, options);
}

}  // namespace prox::sta
