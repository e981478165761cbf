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

// --- Parsed intermediate form ----------------------------------------------
// The reader lexes the whole file into cards first and builds the netlist
// second, so card order (".inputs" after the gates that read them, multiple
// ".outputs" cards) never matters.  Every token is a view into the input
// text, which outlives the parse, and covers are index ranges into two flat
// arrays, so lexing allocates nothing per token, row or cover.

struct Row {
  int line = 0;
  std::string_view plane;  ///< k characters over {'0','1','-'}; empty if k == 0
  char out = '0';
};

/// 32-bit ranges, like the Netlist's pin CSR: a token costs at least two
/// input bytes, so the default 256 MiB input cap stays far below 2^32.
struct Cover {
  int line = 0;
  /// nets[netFirst .. netFirst + netCount): inputs..., output last.
  std::uint32_t netFirst = 0;
  std::uint32_t netCount = 0;
  /// rows[rowFirst .. rowFirst + rowCount).
  std::uint32_t rowFirst = 0;
  std::uint32_t rowCount = 0;

  std::size_t fanin() const { return netCount - 1; }
};

struct LineNet {
  int line = 0;
  std::string_view net;
};

struct ParsedBlif {
  std::string_view modelName;
  bool sawModel = false;
  bool ended = false;
  std::vector<LineNet> inputs;
  std::vector<LineNet> outputs;
  std::vector<LineNet> latchOutputs;
  std::vector<Cover> covers;
  std::vector<std::string_view> nets;  ///< every cover's nets, back to back
  std::vector<Row> rows;               ///< every cover's rows, back to back
  std::size_t tokens = 0;

  std::span<const std::string_view> netsOf(const Cover& c) const {
    return {nets.data() + c.netFirst, c.netCount};
  }
  std::span<const Row> rowsOf(const Cover& c) const {
    return {rows.data() + c.rowFirst, c.rowCount};
  }
};

using Tokens = std::span<const std::string_view>;

/// Appends one row to the open cover (always covers.back()).
void parseCoverRow(ParsedBlif* out, int line, Tokens tokens) {
  Cover& cover = out->covers.back();
  const std::size_t k = cover.fanin();
  Row row;
  row.line = line;
  if (k == 0) {
    if (tokens.size() != 1 || tokens[0].size() != 1 ||
        (tokens[0][0] != '0' && tokens[0][0] != '1')) {
      failParse(kSite, "constant cover row must be a single '0' or '1'", line);
    }
    row.out = tokens[0][0];
  } else {
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
        failParse(kSite,
                  std::string("invalid cover-plane character '") + c + "'",
                  line);
      }
    }
    if (tokens[1].size() != 1 || (tokens[1][0] != '0' && tokens[1][0] != '1')) {
      failParse(kSite, "cover output must be '0' or '1'", line);
    }
    row.plane = tokens[0];
    row.out = tokens[1][0];
  }
  out->rows.push_back(row);
  ++cover.rowCount;
}

/// Dispatches one logical line (continuations already joined) into @p out.
/// @p coverOpen tracks whether covers.back() is the .names card whose rows
/// are being read.
void handleLogicalLine(ParsedBlif* out, bool* coverOpen, int line,
                       Tokens tokens, const BlifOptions& options) {
  const std::string_view head = tokens[0];
  if (head[0] != '.') {
    if (!*coverOpen) {
      failParse(kSite, "cover row outside a .names card", line);
    }
    parseCoverRow(out, line, tokens);
    return;
  }
  *coverOpen = false;
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
    if (tokens.size() - 2 > options.maxFanin) {
      failResource(kSite,
                   ".names fanin " + std::to_string(tokens.size() - 2) +
                       " exceeds cap " + std::to_string(options.maxFanin),
                   line);
    }
    Cover cover;
    cover.line = line;
    cover.netFirst = static_cast<std::uint32_t>(out->nets.size());
    cover.netCount = static_cast<std::uint32_t>(tokens.size() - 1);
    cover.rowFirst = static_cast<std::uint32_t>(out->rows.size());
    out->nets.insert(out->nets.end(), tokens.begin() + 1, tokens.end());
    out->covers.push_back(cover);
    *coverOpen = true;
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

/// Lexes @p text into logical lines (comments stripped, '\'-continuations
/// joined, tokens split on blanks) and feeds them through the card state
/// machine.  Every token is budget-charged before it is stored.
ParsedBlif parseCards(std::string_view text, const BlifOptions& options,
                      AllocationBudget* budget) {
  ParsedBlif out;
  bool coverOpen = false;
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
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    while (!line.empty() &&
           (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
      line.remove_suffix(1);
    }
    bool continued = false;
    if (!line.empty() && line.back() == '\\') {
      continued = true;
      line.remove_suffix(1);
    }

    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      if (i == start) break;
      const std::string_view token = line.substr(start, i - start);
      if (token.size() > options.limits.maxTokenBytes) {
        failResource(kSite, "token exceeds size cap", physLine);
      }
      budget->charge(token.size() + 32, "token", physLine);
      if (tokens.empty()) logicalLine = physLine;
      tokens.push_back(token);
    }

    if (continued) continue;  // logical line extends onto the next one
    if (!tokens.empty() && !out.ended) {
      out.tokens += tokens.size();
      handleLogicalLine(&out, &coverOpen, logicalLine, tokens, options);
    }
    tokens.clear();
  }
  if (!out.ended) {
    failParse(kSite, "truncated input: missing .end", physLine);
  }
  return out;
}

// --- Cover classification ---------------------------------------------------

/// Maps a validated cover to the characterized cell type it denotes, or
/// fails with a typed ParseError.  Recognized shapes (k = fanin):
///   INV  (k=1):  "0 1" (on-set) or "1 0" (off-set)
///   NAND: single all-'1' row -> '0', or k rows each with exactly one '0'
///         (rest '-') -> '1' covering every position once
///   NOR:  single all-'0' row -> '1', or k rows each with exactly one '1'
///         (rest '-') -> '0' covering every position once
/// @p seen is scratch space for the one-hot forms, reused across covers.
cells::GateType classifyCover(const Cover& cover, std::span<const Row> rows,
                              std::vector<char>* seen) {
  const std::size_t k = cover.fanin();
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

BlifSummary buildFromParsed(const ParsedBlif& parsed, const GateLibrary& library,
                            Netlist* netlist, AllocationBudget* budget) {
  if (!parsed.sawModel) failParse(kSite, "missing .model", 1);
  BlifSummary summary;
  summary.modelName = parsed.modelName;

  // Pre-size the arena for what the cards declare: every net of a
  // well-formed file is an input, a latch output, or a cover's output.
  std::size_t gates = 0, pins = 0;
  for (const Cover& cover : parsed.covers) {
    if (cover.fanin() == 0) continue;
    ++gates;
    pins += cover.fanin();
  }
  netlist->reserve(netlist->nodeCount() + gates,
                   netlist->netCount() + parsed.inputs.size() +
                       parsed.latchOutputs.size() + parsed.covers.size(),
                   netlist->arcCount() + pins);

  const std::size_t repeatedInput = firstRepeat(parsed.inputs);
  summary.inputs.reserve(parsed.inputs.size());
  for (std::size_t i = 0; i < parsed.inputs.size(); ++i) {
    const auto [line, net] = parsed.inputs[i];
    if (i == repeatedInput) {
      failParse(kSite, "duplicate .inputs net '" + std::string(net) + "'",
                line);
    }
    budget->charge(net.size() + 64, "primary input", line);
    netlist->addPrimaryInput(net);
    summary.inputs.emplace_back(net);
  }
  const std::size_t repeatedOutput = firstRepeat(parsed.outputs);
  if (repeatedOutput < parsed.outputs.size()) {
    const auto [line, net] = parsed.outputs[repeatedOutput];
    failParse(kSite, "duplicate .outputs net '" + std::string(net) + "'",
              line);
  }
  summary.outputs.reserve(parsed.outputs.size());
  for (const auto& [line, net] : parsed.outputs) {
    summary.outputs.emplace_back(net);
  }

  // Latch outputs become pseudo-primary-inputs: the classic STA cut at
  // register boundaries.  Re-driving a declared input is a hard reject (two
  // different no-event sources for one net is meaningless).
  for (const auto& [line, net] : parsed.latchOutputs) {
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
  std::vector<char> seen;
  std::string fallback;
  for (const Cover& cover : parsed.covers) {
    const std::size_t k = cover.fanin();
    const std::span<const std::string_view> nets = parsed.netsOf(cover);
    const std::string_view outNet = nets.back();
    if (k == 0) {
      if (cover.rowCount > 1) {
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
      continue;
    }
    const cells::GateType type =
        classifyCover(cover, parsed.rowsOf(cover), &seen);
    const CharacterizedGate& cell =
        library.require(type, static_cast<int>(k), cover.line);
    budget->chargeItems(k + 1, 48, "instance nets", cover.line);
    const std::span<const std::string_view> inputs = nets.first(k);
    NodeId node = netlist->tryAddInstanceLenient(outNet, cell, inputs, outNet);
    for (int n = 2; !node.valid(); ++n) {
      fallback.assign(outNet);
      fallback += '#';
      fallback += std::to_string(n);
      node = netlist->tryAddInstanceLenient(fallback, cell, inputs, outNet);
    }
    ++summary.gates;
  }

  // Every declared output must be driven: an undriven .outputs net would
  // silently vanish from any timing report.
  for (const auto& [line, net] : parsed.outputs) {
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
  ParsedBlif parsed;
  {
    PROX_OBS_SCOPED_TIMER("sta.blif.lex.seconds");
    PROX_OBS_SPAN("sta.blif.lex");
    parsed = parseCards(text, options, &budget);
  }
  PROX_OBS_COUNT("sta.blif.tokens", parsed.tokens);
  PROX_OBS_COUNT("sta.blif.covers", parsed.covers.size());
  PROX_OBS_SCOPED_TIMER("sta.blif.build.seconds");
  PROX_OBS_SPAN("sta.blif.build");
  return buildFromParsed(parsed, library, netlist, &budget);
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
  const std::string text =
      support::readStreamBounded(is, options.limits.maxInputBytes, kSite);
  return parseText(text, library, netlist, options);
}

BlifSummary readBlifString(std::string_view text, const GateLibrary& library,
                           Netlist* netlist, const BlifOptions& options) {
  return parseText(text, library, netlist, options);
}

BlifSummary readBlifFile(const std::string& path, const GateLibrary& library,
                         Netlist* netlist, const BlifOptions& options) {
  if (path == "-") return readBlif(std::cin, library, netlist, options);
  const std::string text =
      support::readFileBounded(path, options.limits.maxInputBytes, kSite);
  return parseText(text, library, netlist, options);
}

}  // namespace prox::sta
