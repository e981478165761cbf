#pragma once
// Reference BLIF reader: the straightforward string-per-token reader that
// sta/blif.cpp replaced with a view-based lexer over flat cover arrays.
// Kept in tests/ as an oracle (the way levelize_reference.hpp backs
// levelize()): every token is a std::string, every cover owns its nets and
// rows, and the netlist is built through the public Netlist API only.  The
// production reader must agree with it on every input -- the same netlist,
// or the same diagnostic code, message and line.

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sta/blif.hpp"
#include "support/bounded.hpp"

namespace prox::testutil {

namespace blif_reference {

inline constexpr const char* kSite = "sta.blif";

using support::failParse;
using support::failResource;

struct Row {
  int line = 0;
  std::string plane;  ///< k characters over {'0','1','-'}; empty when k == 0
  char out = '0';
};

struct Cover {
  int line = 0;
  std::vector<std::string> nets;  ///< inputs..., output last (size >= 1)
  std::vector<Row> rows;
};

struct ParsedBlif {
  std::string modelName;
  bool sawModel = false;
  bool ended = false;
  std::vector<std::pair<int, std::string>> inputs;   ///< (line, net)
  std::vector<std::pair<int, std::string>> outputs;  ///< (line, net)
  std::vector<std::pair<int, std::string>> latchOutputs;
  std::vector<Cover> covers;
};

inline void parseCoverRow(Cover* cover, int line,
                          const std::vector<std::string>& tokens) {
  const std::size_t k = cover->nets.size() - 1;
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
  cover->rows.push_back(std::move(row));
}

inline void handleLogicalLine(ParsedBlif* out, Cover** openCover, int line,
                              const std::vector<std::string>& tokens,
                              const sta::BlifOptions& options) {
  const std::string& head = tokens[0];
  if (head[0] != '.') {
    if (*openCover == nullptr) {
      failParse(kSite, "cover row outside a .names card", line);
    }
    parseCoverRow(*openCover, line, tokens);
    return;
  }
  *openCover = nullptr;
  if (head == ".model") {
    if (out->sawModel) failParse(kSite, "duplicate .model", line);
    if (tokens.size() != 2) failParse(kSite, ".model: expected one name", line);
    out->sawModel = true;
    out->modelName = tokens[1];
  } else if (head == ".inputs") {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      out->inputs.emplace_back(line, tokens[i]);
    }
  } else if (head == ".outputs") {
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      out->outputs.emplace_back(line, tokens[i]);
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
    cover.nets.assign(tokens.begin() + 1, tokens.end());
    out->covers.push_back(std::move(cover));
    *openCover = &out->covers.back();
  } else if (head == ".latch") {
    if (!options.allowLatches) {
      failParse(kSite, ".latch not allowed by reader options", line);
    }
    const std::size_t operands = tokens.size() - 1;
    if (operands < 2 || operands > 5) {
      failParse(kSite, ".latch: expected 2..5 operands", line);
    }
    out->latchOutputs.emplace_back(line, tokens[2]);
  } else if (head == ".end") {
    out->ended = true;
  } else {
    failParse(kSite, "unsupported construct '" + head + "'", line);
  }
}

inline ParsedBlif parseCards(std::string_view text,
                             const sta::BlifOptions& options,
                             support::AllocationBudget* budget) {
  ParsedBlif out;
  Cover* openCover = nullptr;
  std::vector<std::string> tokens;
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
      std::string_view token = line.substr(start, i - start);
      if (token.size() > options.limits.maxTokenBytes) {
        failResource(kSite, "token exceeds size cap", physLine);
      }
      budget->charge(token.size() + 32, "token", physLine);
      if (tokens.empty()) logicalLine = physLine;
      tokens.emplace_back(token);
    }

    if (continued) continue;
    if (!tokens.empty() && !out.ended) {
      handleLogicalLine(&out, &openCover, logicalLine, tokens, options);
    }
    tokens.clear();
  }
  if (!out.ended) {
    failParse(kSite, "truncated input: missing .end", physLine);
  }
  return out;
}

inline cells::GateType classifyCover(const Cover& cover) {
  const std::size_t k = cover.nets.size() - 1;
  const auto& rows = cover.rows;
  if (rows.empty()) {
    failParse(kSite, ".names with inputs but no cover rows", cover.line);
  }
  const char out0 = rows[0].out;
  for (const Row& r : rows) {
    if (r.out != out0) {
      failParse(kSite, "cover mixes on-set and off-set rows", r.line);
    }
  }
  const auto allAre = [](const std::string& plane, char c) {
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
  const auto oneHot = [&](char mark, char outBit) {
    if (rows.size() != k || out0 != outBit) return false;
    std::vector<char> seen(k, 0);
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
      if (pick < 0 || seen[pick] != 0) return false;
      seen[pick] = 1;
    }
    return true;
  };
  if (oneHot('0', '1')) return cells::GateType::Nand;
  if (oneHot('1', '0')) return cells::GateType::Nor;
  failParse(kSite, "cover does not denote a characterized INV/NAND/NOR cell",
            cover.line);
}

inline sta::BlifSummary buildFromParsed(const ParsedBlif& parsed,
                                        const sta::GateLibrary& library,
                                        sta::Netlist* netlist,
                                        support::AllocationBudget* budget) {
  if (!parsed.sawModel) failParse(kSite, "missing .model", 1);
  sta::BlifSummary summary;
  summary.modelName = parsed.modelName;

  std::unordered_set<std::string> declaredInputs;
  for (const auto& [line, net] : parsed.inputs) {
    if (!declaredInputs.insert(net).second) {
      failParse(kSite, "duplicate .inputs net '" + net + "'", line);
    }
    budget->charge(net.size() + 64, "primary input", line);
    netlist->addPrimaryInput(net);
    summary.inputs.push_back(net);
  }
  std::unordered_set<std::string> declaredOutputs;
  for (const auto& [line, net] : parsed.outputs) {
    if (!declaredOutputs.insert(net).second) {
      failParse(kSite, "duplicate .outputs net '" + net + "'", line);
    }
    summary.outputs.push_back(net);
  }

  for (const auto& [line, net] : parsed.latchOutputs) {
    if (netlist->isDriven(net)) {
      failParse(kSite, ".latch output '" + net + "' re-drives a net", line);
    }
    budget->charge(net.size() + 64, "latch output", line);
    netlist->addPrimaryInput(net);
    ++summary.latches;
  }

  for (const Cover& cover : parsed.covers) {
    const std::size_t k = cover.nets.size() - 1;
    const std::string& outNet = cover.nets.back();
    if (k == 0) {
      if (cover.rows.size() > 1) {
        failParse(kSite, "constant cover has multiple rows", cover.line);
      }
      if (netlist->isDriven(outNet)) {
        failParse(kSite, "constant re-drives net '" + outNet + "'",
                  cover.line);
      }
      budget->charge(outNet.size() + 64, "constant net", cover.line);
      netlist->addPrimaryInput(outNet);
      ++summary.constants;
      continue;
    }
    const cells::GateType type = classifyCover(cover);
    const characterize::CharacterizedGate& cell =
        library.require(type, static_cast<int>(k), cover.line);
    std::string name = outNet;
    for (int n = 2; netlist->findNode(name).valid(); ++n) {
      name = outNet + "#" + std::to_string(n);
    }
    budget->chargeItems(k + 1, 48, "instance nets", cover.line);
    const std::vector<std::string> inputNets(cover.nets.begin(),
                                             cover.nets.end() - 1);
    netlist->addInstanceLenient(name, cell, inputNets, outNet);
    ++summary.gates;
  }

  for (const auto& [line, net] : parsed.outputs) {
    if (!netlist->isDriven(net)) {
      failParse(kSite, "undriven .outputs net '" + net + "'", line);
    }
  }
  return summary;
}

}  // namespace blif_reference

/// readBlifString, the reference way.
inline sta::BlifSummary referenceReadBlif(std::string_view text,
                                          const sta::GateLibrary& library,
                                          sta::Netlist* netlist,
                                          const sta::BlifOptions& options = {}) {
  if (text.size() > options.limits.maxInputBytes) {
    support::failResource(blif_reference::kSite, "input exceeds size cap");
  }
  support::AllocationBudget budget(blif_reference::kSite, text.size(),
                                   options.limits);
  const blif_reference::ParsedBlif parsed =
      blif_reference::parseCards(text, options, &budget);
  return blif_reference::buildFromParsed(parsed, library, netlist, &budget);
}

}  // namespace prox::testutil
